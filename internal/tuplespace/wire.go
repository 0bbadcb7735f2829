// Wire introspection helpers: the wire codec carries tuples and templates
// field by field, and template placeholders (Wildcard, TypeOf) are
// unexported types it cannot inspect directly. These accessors expose just
// enough structure to round-trip a template without widening the package's
// matching semantics.

package tuplespace

import "reflect"

// IsWildcard reports whether a template element is the Wildcard
// placeholder.
func IsWildcard(v any) bool {
	_, ok := v.(wildcard)
	return ok
}

// Scalar reports whether v is a value of one of the field types that cross
// the wire: string, int, int64, float64, bool and []byte.
func Scalar(v any) bool {
	return scalarTypeName(reflect.TypeOf(v)) != ""
}

// TypeName returns the canonical wire name of a TypeOf placeholder's type
// and true, or ("", false) when v is not a TypeOf placeholder. Only the
// scalar field types the wire codec supports have names; other TypeOf
// placeholders yield ("", true) and cannot cross the wire.
func TypeName(v any) (string, bool) {
	p, ok := v.(typeOf)
	if !ok {
		return "", false
	}
	return scalarTypeName(p.rt), true
}

// placeholders holds each wire type's TypeOf placeholder, boxed once.
var placeholders = map[string]any{
	"string":  TypeOf(""),
	"int":     TypeOf(0),
	"int64":   TypeOf(int64(0)),
	"float64": TypeOf(float64(0)),
	"bool":    TypeOf(false),
	"[]byte":  TypeOf([]byte(nil)),
}

// TypeFromName reconstructs a TypeOf placeholder from a wire name produced
// by TypeName; ok is false for unknown names.
func TypeFromName(name string) (any, bool) {
	p, ok := placeholders[name]
	return p, ok
}

// scalarTypeName maps a reflect.Type onto its wire name, or "" for types
// the codec does not carry.
func scalarTypeName(rt reflect.Type) string {
	switch rt {
	case reflect.TypeOf(""):
		return "string"
	case reflect.TypeOf(0):
		return "int"
	case reflect.TypeOf(int64(0)):
		return "int64"
	case reflect.TypeOf(float64(0)):
		return "float64"
	case reflect.TypeOf(false):
		return "bool"
	case reflect.TypeOf([]byte(nil)):
		return "[]byte"
	}
	return ""
}
