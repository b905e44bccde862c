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
	_, build, err := resolveScheme(name)
	if err != nil {
		return nil, err
	}
	return build(cfg)
}

// SchemeName returns the Name of the engine NewByName builds for name,
// without building it: a caller checking names alone is spared the
// engine's block table and per-cache state.
func SchemeName(name string) (string, error) {
	n, _, err := resolveScheme(name)
	return n, err
}

// resolveScheme maps a scheme name to its engine's Name and constructor.
func resolveScheme(name string) (string, func(Config) (Engine, error), error) {
	n := strings.ToLower(strings.TrimSpace(name))
	switch n {
	case "dirnnb", "fullmap", "censier-feautrier":
		return "DirnNB", engine(NewDirnNB), nil
	case "dir0b", "archibald-baer", "twobit":
		return "Dir0B", engine(NewDir0B), nil
	case "codedset", "coded", "coded-set":
		return "CodedSet", engine(NewCodedSet), nil
	case "tang":
		return "Tang", engine(NewTang), nil
	case "wti":
		return "WTI", engine(NewWTI), nil
	case "dragon":
		return "Dragon", engine(NewDragon), nil
	case "berkeley":
		return "Berkeley", engine(NewBerkeley), nil
	case "mesi", "illinois":
		return "MESI", engine(NewMESI), nil
	case "moesi":
		return "MOESI", engine(NewMOESI), nil
	case "writeonce", "write-once", "goodman":
		return "WriteOnce", engine(NewWriteOnce), nil
	case "firefly":
		return "Firefly", engine(NewFirefly), nil
	case "readbroadcast", "read-broadcast", "rudolph-segall":
		return "ReadBroadcast", engine(NewReadBroadcast), nil
	}
	if rest, ok := strings.CutPrefix(n, "competitive"); ok {
		k, err := strconv.Atoi(rest)
		if err == nil && k >= 1 {
			return fmt.Sprintf("Competitive%d", k), engine(func(cfg Config) (*Dragon, error) { return NewCompetitive(k, cfg) }), nil
		}
	}
	if rest, ok := strings.CutPrefix(n, "dir"); ok {
		if num, ok := strings.CutSuffix(rest, "nb"); ok {
			i, err := strconv.Atoi(num)
			if err == nil && i >= 1 {
				return fmt.Sprintf("Dir%dNB", i), engine(func(cfg Config) (*DirEngine, error) { return NewDiriNB(i, cfg) }), nil
			}
		} else if num, ok := strings.CutSuffix(rest, "b"); ok {
			i, err := strconv.Atoi(num)
			if err == nil && i >= 1 {
				return fmt.Sprintf("Dir%dB", i), engine(func(cfg Config) (*DirEngine, error) { return NewDiriB(i, cfg) }), nil
			}
		}
	}
	return "", nil, fmt.Errorf("coherence: unknown scheme %q (known: %s, plus dir<i>b / dir<i>nb)",
		name, strings.Join(EngineNames(), ", "))
}

// engine adapts a constructor of a concrete engine type to return an
// Engine, nil on error rather than a typed nil.
func engine[E Engine](build func(Config) (E, error)) func(Config) (Engine, error) {
	return func(cfg Config) (Engine, error) {
		e, err := build(cfg)
		if err != nil {
			return nil, err
		}
		return e, nil
	}
}
