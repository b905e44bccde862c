package trace

import "io"

// FilterFunc reports whether a reference should be kept.
type FilterFunc func(Ref) bool

// Filter wraps rd, yielding only references for which keep returns true.
func Filter(rd Reader, keep FilterFunc) Reader {
	return &filterReader{rd: rd, keep: keep}
}

type filterReader struct {
	rd   Reader
	keep FilterFunc
}

func (f *filterReader) Next() (Ref, error) {
	for {
		ref, err := f.rd.Next()
		if err != nil {
			return Ref{}, err
		}
		if f.keep(ref) {
			return ref, nil
		}
	}
}

// DropLockSpins removes spin-lock test reads from the trace. This is the
// Section 5.2 experiment: "we ran a set of experiments excluding all the
// tests on locks in the three traces".
func DropLockSpins(rd Reader) Reader {
	return Filter(rd, func(r Ref) bool { return !r.Lock })
}

// Limit yields at most n references from rd.
func Limit(rd Reader, n int) Reader {
	return &limitReader{rd: rd, remain: n}
}

type limitReader struct {
	rd     Reader
	remain int
}

func (l *limitReader) Next() (Ref, error) {
	if l.remain <= 0 {
		return Ref{}, io.EOF
	}
	ref, err := l.rd.Next()
	if err != nil {
		return Ref{}, err
	}
	l.remain--
	return ref, nil
}
