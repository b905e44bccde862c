package tracegen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"dirsim/internal/trace"
)

// goldenTraces pins the bytes Generate produces. Trace contents feed the
// sim equivalence digests, perfbench's golden digest, the paper output
// and every cached cell document, so a generator change that alters any
// reference must show up here first. Keys are preset/seed offset/CPUs/
// filter; values are SHA-256 digests of the reference stream.
var goldenTraces = map[string]string{
	"POPS/seed+0/4cpu/all":            "e16376e1453fb0a1e1107110bf55b2f445f54d713658405893495c919828f8a9",
	"POPS/seed+0/4cpu/droplockspins":  "03540ef2d84931894dab524ce68c1a26034fb247d4ede3b343a4660aa5374c0d",
	"POPS/seed+0/16cpu/all":           "42dcc6562685019df1250c2b40a13e64e427bce85ea4d442f74efb57825feff2",
	"POPS/seed+0/16cpu/droplockspins": "286b24e7946350f834d9f692362f72cd1051d9b511e0bc8b9d38920af5e6a5b8",
	"POPS/seed+1/4cpu/all":            "e57fa3547b85ac21e76770b08df7524261eb1d088336c3a5993e40966b4f235b",
	"POPS/seed+1/4cpu/droplockspins":  "8205197a215d0bfe36f3eaf8bd8ca12eeb53aec53b47c8e9dfcad565f20a38e9",
	"POPS/seed+1/16cpu/all":           "cd9a213555a2153561f2e835d0ceb71c56c76633b6c484bfa8b1481d88f20025",
	"POPS/seed+1/16cpu/droplockspins": "930b9b8b195b54ddf066876ef067ab52668f1d1377e72541ef9b59804fc3bfdb",
	"POPS/seed+2/4cpu/all":            "31245c7a5331c0aabd31bd406e3571a1977a426a94491f9c0caefd9a0ef058c1",
	"POPS/seed+2/4cpu/droplockspins":  "a346646f9d59a603d92a11c103ded9f92b7bbc4fe12c007529a7ad47372ed7e0",
	"POPS/seed+2/16cpu/all":           "27cf9edd45ddccf64c49936a1b226439ec28c236af17058c3d4613b76bd91605",
	"POPS/seed+2/16cpu/droplockspins": "6fd551e1ae1504a4ca0fea95d8ade86fbf295803fe3bcf2dd5e680d411fca11d",
	"THOR/seed+0/4cpu/all":            "5c86870ca45c8c3a93fcc8a2a28f687fd88dcd5ce2d3e52165f7b44498a4cf17",
	"THOR/seed+0/4cpu/droplockspins":  "097d4c25cb5b2c4b52bd96434b977243cc6c80aa4e0a13607e32b501adcd0524",
	"THOR/seed+0/16cpu/all":           "1a4795f106edc5911351ecfc1a2a598b78819388666c667a004c96b7e279dba9",
	"THOR/seed+0/16cpu/droplockspins": "85fe05aa11428e4059a06152df4e3905f82c7230470075bc80a89480849fe1a5",
	"THOR/seed+1/4cpu/all":            "6b0605e3247ccb27b7428533da335b07b3c5c98eb45ff04a95c8855a7731dd7b",
	"THOR/seed+1/4cpu/droplockspins":  "544159b9249826ce389bc4c89381669e1c4dc3ba282586a12df057c4eafb9a77",
	"THOR/seed+1/16cpu/all":           "51003b1f9cc1a5d3f425360a5216cd5d13c1fdbc2e29d1bde1d2e3f48daddbdb",
	"THOR/seed+1/16cpu/droplockspins": "6667a1e228197e5e40306979322da03568a84db2adafeb3cb2bdb48b71f59238",
	"THOR/seed+2/4cpu/all":            "0368f35b92f640c739a88960d8c77ded709f80b563862011d5f6cdfe4c6d6943",
	"THOR/seed+2/4cpu/droplockspins":  "0dac843065edcfa10bd76de46509f2fb64f90665309923fd2d21681db682b5ba",
	"THOR/seed+2/16cpu/all":           "e7314c889c6cf1ff0f22ac29563d381d34f0258bed8386246352d39536b73979",
	"THOR/seed+2/16cpu/droplockspins": "73901dde901e9f41328173ed6ba6a7c73cebc0695aa2c3a74b07300aeb5b26fe",
	"PERO/seed+0/4cpu/all":            "de0661824f1a34df8d660bac66eb61f4775ddcbb41e3b37315486a953c874fdf",
	"PERO/seed+0/4cpu/droplockspins":  "34282c9f9c4096dc53c744ab66dd7dc0e4fe1dce772ab5e00b96ca99011467d8",
	"PERO/seed+0/16cpu/all":           "4f69fe36d9267443ad00cae156f9ceabcf04653fa89947edcebb167b5fcfbc79",
	"PERO/seed+0/16cpu/droplockspins": "941657ac1a9b11d2ed01592e458ba0d53029d38a1e4610c5db6f2f8fd16b936f",
	"PERO/seed+1/4cpu/all":            "e7728184ae3059d7aedcd5367dc043bac57cf496a298ee4c0e7c97d729aef8f9",
	"PERO/seed+1/4cpu/droplockspins":  "c789bc8fde53bc7d7cc1e0ecf62b7757520152974e4fa316d5104d1abc5a3b9b",
	"PERO/seed+1/16cpu/all":           "80eca53b7c88c8c8cbcbd1305ba1ade1309123048bf4536925d7c94066814878",
	"PERO/seed+1/16cpu/droplockspins": "ae0510e93531244f367e19ab222da74fc805cc3ec14bad29ed189b064200c65a",
	"PERO/seed+2/4cpu/all":            "28d28b3f404d6a169194b98866db2394f124e598ea68e4b42da88ca4e29a1e00",
	"PERO/seed+2/4cpu/droplockspins":  "f1e84ef71683d086357da462d9a22988250536b5ce54fca1c8ba494e583b33e6",
	"PERO/seed+2/16cpu/all":           "ea3dc0478bcc27ee8bd28cf90f76910d3abac52efabf5c1bceb1827edcd101ad",
	"PERO/seed+2/16cpu/droplockspins": "babe599f0f65c92e0c0a8563b7a7bc660b429538671c8bcd127ab27144c40bbd",
}

// refsDigest hashes every field of every reference rd yields.
func refsDigest(t *testing.T, rd trace.Reader) string {
	t.Helper()
	h := sha256.New()
	var buf [16]byte
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = r.CPU
		binary.LittleEndian.PutUint16(buf[1:], r.PID)
		buf[3] = byte(r.Kind)
		binary.LittleEndian.PutUint64(buf[4:], r.Addr)
		buf[12], buf[13] = 0, 0
		if r.Lock {
			buf[12] = 1
		}
		if r.Kernel {
			buf[13] = 1
		}
		h.Write(buf[:14])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTraces checks Generate against goldenTraces for each preset,
// three seeds and two machine sizes, with and without lock spins.
func TestGoldenTraces(t *testing.T) {
	seen := 0
	for _, base := range Presets(20_000) {
		for seed := int64(0); seed < 3; seed++ {
			for _, cpus := range []int{4, 16} {
				cfg := base
				cfg.Seed += seed
				cfg.CPUs = cpus
				tr, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, spins := range []string{"all", "droplockspins"} {
					rd := trace.Reader(trace.NewSliceReader(tr))
					if spins == "droplockspins" {
						rd = trace.DropLockSpins(rd)
					}
					key := fmt.Sprintf("%s/seed+%d/%dcpu/%s", cfg.Name, seed, cpus, spins)
					got := refsDigest(t, rd)
					seen++
					if want := goldenTraces[key]; got != want {
						t.Errorf("%s: digest %s, want %s", key, got, want)
					}
				}
			}
		}
	}
	if seen != len(goldenTraces) {
		t.Errorf("checked %d traces, golden table has %d", seen, len(goldenTraces))
	}
}
