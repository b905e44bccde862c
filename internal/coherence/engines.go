package coherence

import (
	"fmt"
	"strconv"
	"strings"
)

// Section3Engines returns the four schemes the paper's Section 3 evaluates
// head-to-head, in the paper's order: Dir1NB, WTI, Dir0B, Dragon.
func Section3Engines(cfg Config) ([]Engine, error) {
	dir1nb, err := NewDir1NB(cfg)
	if err != nil {
		return nil, err
	}
	wti, err := NewWTI(cfg)
	if err != nil {
		return nil, err
	}
	dir0b, err := NewDir0B(cfg)
	if err != nil {
		return nil, err
	}
	dragon, err := NewDragon(cfg)
	if err != nil {
		return nil, err
	}
	return []Engine{dir1nb, wti, dir0b, dragon}, nil
}

// EngineNames lists every scheme NewByName accepts (with i = 2 where a
// pointer count is required; any positive i works in the dir<i>… forms).
func EngineNames() []string {
	return []string{
		"dir1nb", "dir2nb", "dirnnb", "dir0b", "dir1b", "dir2b",
		"codedset", "tang", "wti", "dragon", "berkeley",
		"mesi", "moesi", "writeonce", "firefly", "competitive4", "readbroadcast",
	}
}

// NewByName constructs an engine from a scheme name: any name EngineNames
// lists, dir<i>b, dir<i>nb or competitive<k> for any positive i or k, or
// an alias such as "fullmap", "illinois" or "goodman". Names are
// case-insensitive.
func NewByName(name string, cfg Config) (Engine, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	switch n {
	case "dirnnb", "fullmap", "censier-feautrier":
		return NewDirnNB(cfg)
	case "dir0b", "archibald-baer", "twobit":
		return NewDir0B(cfg)
	case "codedset", "coded", "coded-set":
		return NewCodedSet(cfg)
	case "tang":
		return NewTang(cfg)
	case "wti":
		return NewWTI(cfg)
	case "dragon":
		return NewDragon(cfg)
	case "berkeley":
		return NewBerkeley(cfg)
	case "mesi", "illinois":
		return NewMESI(cfg)
	case "moesi":
		return NewMOESI(cfg)
	case "writeonce", "write-once", "goodman":
		return NewWriteOnce(cfg)
	case "firefly":
		return NewFirefly(cfg)
	case "readbroadcast", "read-broadcast", "rudolph-segall":
		return NewReadBroadcast(cfg)
	}
	if rest, ok := strings.CutPrefix(n, "competitive"); ok {
		k, err := strconv.Atoi(rest)
		if err == nil && k >= 1 {
			return NewCompetitive(k, cfg)
		}
	}
	if rest, ok := strings.CutPrefix(n, "dir"); ok {
		if num, ok := strings.CutSuffix(rest, "nb"); ok {
			i, err := strconv.Atoi(num)
			if err == nil && i >= 1 {
				return NewDiriNB(i, cfg)
			}
		} else if num, ok := strings.CutSuffix(rest, "b"); ok {
			i, err := strconv.Atoi(num)
			if err == nil && i >= 1 {
				return NewDiriB(i, cfg)
			}
		}
	}
	return nil, fmt.Errorf("coherence: unknown scheme %q (known: %s, plus dir<i>b / dir<i>nb)",
		name, strings.Join(EngineNames(), ", "))
}
