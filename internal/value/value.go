// Package value defines the dynamically typed values exchanged between
// the query language, user-defined functions, and file metadata.
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates value types.
type Kind int

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindList // list of strings (e.g. keywords(file))
)

// V is one dynamically typed value.
type V struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
	L    []string
}

// Constructors.

// Null returns the null value.
func Null() V { return V{Kind: KindNull} }

// Int returns an integer value.
func Int(i int64) V { return V{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) V { return V{Kind: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) V { return V{Kind: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) V { return V{Kind: KindBool, B: b} }

// List returns a list-of-strings value.
func List(l []string) V { return V{Kind: KindList, L: l} }

// AsFloat converts numeric values to float64.
func (v V) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// Truthy reports boolean truth for predicates.
func (v V) Truthy() bool {
	switch v.Kind {
	case KindBool:
		return v.B
	case KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	case KindList:
		return len(v.L) > 0
	default:
		return false
	}
}

// Equal compares two values, coercing numerics.
func Equal(a, b V) bool {
	if af, ok := a.AsFloat(); ok {
		if bf, ok := b.AsFloat(); ok {
			return af == bf
		}
		return false
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindString:
		return a.S == b.S
	case KindBool:
		return a.B == b.B
	case KindNull:
		return true
	case KindList:
		if len(a.L) != len(b.L) {
			return false
		}
		for i := range a.L {
			if a.L[i] != b.L[i] {
				return false
			}
		}
		return true
	}
	return false
}

// Compare orders two values: -1, 0, +1. Mixed numeric kinds coerce;
// anything else compares as strings of their display form.
func Compare(a, b V) int {
	if af, aok := a.AsFloat(); aok {
		if bf, bok := b.AsFloat(); bok {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	return strings.Compare(a.String(), b.String())
}

// Contains reports whether the list (or string) v contains s.
func (v V) Contains(s string) bool {
	switch v.Kind {
	case KindList:
		for _, x := range v.L {
			if x == s {
				return true
			}
		}
		return false
	case KindString:
		return strings.Contains(v.S, s)
	default:
		return false
	}
}

// String renders the value for display.
func (v V) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindList:
		return "{" + strings.Join(v.L, ", ") + "}"
	default:
		return fmt.Sprintf("value?%d", int(v.Kind))
	}
}
