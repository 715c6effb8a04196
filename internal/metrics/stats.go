package metrics

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// RegisterStats registers on reg one family per counter and gauge of
// the struct that snapshot returns. Each is declared once, by struct
// tags on the field that /statsz serializes:
//
//   - A numeric or bool field carries `metric:"name" help:"text"`. A
//     name ending in _total is a counter and any other name a gauge; a
//     bool reads 1 or 0. A field tagged `metric:"-"` stays off the page.
//   - A nested struct is walked in place. An interface field is
//     skipped: the section it holds registers its own snapshot.
//   - A map or slice of structs tagged `metric:"<label>"` gives one
//     labeled family per tagged field of its element. A map's keys, in
//     sorted order, are the label values; a slice element names itself
//     with a string field tagged `metric:"label"`.
//
// Every family calls snapshot when the page renders, so the hot paths
// that keep the counters gain no writes. RegisterStats panics on a
// numeric field with no tag, on a field kind it does not support, and
// on a duplicate name, so a counter added to a snapshot without a
// family fails the first test that registers the snapshot.
func RegisterStats[T any](reg *Registry, snapshot func() T) {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	if typ.Kind() != reflect.Struct {
		panic(fmt.Sprintf("metrics: RegisterStats needs a struct snapshot, not %s", typ))
	}
	registerStruct(reg, typ, func() reflect.Value { return reflect.ValueOf(snapshot()) })
}

// registerStruct registers the families of struct type typ, whose
// current value get returns.
func registerStruct(reg *Registry, typ reflect.Type, get func() reflect.Value) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := f.Tag.Get("metric")
		field := func() reflect.Value { return get().Field(i) }
		switch kind := f.Type.Kind(); {
		case name == "-", kind == reflect.Interface:
		case kind == reflect.Struct:
			registerStruct(reg, f.Type, field)
		case kind == reflect.Map, kind == reflect.Slice:
			registerLabeled(reg, f, field)
		case numeric(kind) && name != "":
			reg.register(name, f.Tag.Get("help"), kindOf(name), func(emit func(sample)) {
				emit(sample{value: number(field())})
			})
		default:
			panic(fmt.Sprintf("metrics: %s.%s: %s field is untagged or unsupported", typ, f.Name, kind))
		}
	}
}

// registerLabeled registers the labeled families of f, a map or slice
// of structs whose metric tag names the label, given f's current value.
func registerLabeled(reg *Registry, f reflect.StructField, get func() reflect.Value) {
	labelName, elem := f.Tag.Get("metric"), f.Type.Elem()
	if !validName(labelName) || elem.Kind() != reflect.Struct ||
		f.Type.Kind() == reflect.Map && f.Type.Key().Kind() != reflect.String {
		panic(fmt.Sprintf("metrics: %s: want a map or slice of structs tagged with a label name", f.Name))
	}
	labelField := -1
	var values []int
	for j := 0; j < elem.NumField(); j++ {
		ef := elem.Field(j)
		switch name := ef.Tag.Get("metric"); {
		case name == "label" && ef.Type.Kind() == reflect.String && f.Type.Kind() == reflect.Slice:
			labelField = j
		case numeric(ef.Type.Kind()) && name != "" && name != "-":
			values = append(values, j)
		case name != "-":
			panic(fmt.Sprintf("metrics: %s.%s: %s field is untagged or unsupported", elem, ef.Name, ef.Type.Kind()))
		}
	}
	if f.Type.Kind() == reflect.Slice && labelField < 0 {
		panic(fmt.Sprintf("metrics: %s: slice element has no string field tagged metric:\"label\"", f.Name))
	}
	for _, j := range values {
		ef := elem.Field(j)
		name := ef.Tag.Get("metric")
		reg.register(name, ef.Tag.Get("help"), kindOf(name), func(emit func(sample)) {
			v := get()
			if v.Kind() == reflect.Map {
				keys := v.MapKeys()
				sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
				for _, k := range keys {
					emit(sample{labels: []label{{labelName, k.String()}}, value: number(v.MapIndex(k).Field(j))})
				}
				return
			}
			for e := 0; e < v.Len(); e++ {
				el := v.Index(e)
				emit(sample{labels: []label{{labelName, el.Field(labelField).String()}}, value: number(el.Field(j))})
			}
		})
	}
}

// kindOf is the kind a family name declares: counters end in _total.
func kindOf(name string) Kind {
	if strings.HasSuffix(name, "_total") {
		return KindCounter
	}
	return KindGauge
}

// numeric reports whether RegisterStats can read a field of kind k as
// a sample value.
func numeric(k reflect.Kind) bool {
	return k == reflect.Int || k == reflect.Int64 || k == reflect.Float64 || k == reflect.Bool
}

// number reads a numeric or bool field as a sample value.
func number(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case reflect.Float64:
		return v.Float()
	default:
		return float64(v.Int())
	}
}
