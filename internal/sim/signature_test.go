package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pvsim/internal/timing"
	"pvsim/internal/workloads"
)

// signatureExempt lists the Config fields a signature may ignore, each
// with the reason no simulation reads it. A field path matches an entry
// equal to it or nested below it; slice elements appear as "[]".
var signatureExempt = map[string]string{
	"Hier.L1I.Name":            "a cache name only labels errors",
	"Hier.L1D.Name":            "a cache name only labels errors",
	"Hier.L2.Name":             "a cache name only labels errors",
	"Hier.PVRanges":            "Validate rejects a caller-set value",
	"Hier.OnChipOnlyPV":        "Validate rejects a caller-set value",
	"Hier.ModelBankContention": "Validate rejects a caller-set value",
	"Workload.Class":           "Table 2 text only",
	"Workload.Description":     "Table 2 text only",
	"Cores[].Label":            "a core trace's label only names it in errors",
}

// homogeneousExempt adds what only a homogeneous run ignores.
var homogeneousExempt = map[string]string{
	"PhaseFlush": "a homogeneous core runs one phase, so it has no phase edge to flush at",
}

// mixExempt adds what only a mix run ignores.
var mixExempt = map[string]string{
	"Workload.Params": "a mix's Workload only labels it; Cores carries every core's params",
}

// TestSignatureCoversEveryField walks every leaf field of Config —
// through the hierarchy and its caches, the predictor spec, the workload
// and its trace parameters, the cost model and per-core mix phases —
// perturbs it from its value in a base config, and fails unless the
// signature changes or the field is exempt with a reason. A field added
// to any of these structs fails here until it is keyed or exempted.
func TestSignatureCoversEveryField(t *testing.T) {
	w, err := workloads.ByName("Apache")
	if err != nil {
		t.Fatal(err)
	}
	homogeneous := func() Config {
		cfg := Default(w)
		cfg.Prefetch = PV8
		cfg.Prefetch.Params = map[string]int{"k": 1}
		cfg.Timing, cfg.Windows = true, 4
		cfg.Cost = timing.Config{Enabled: true, Params: timing.DefaultParams(cfg.Hier)}
		return cfg
	}
	mix := func() Config {
		cfg := homogeneous()
		m, err := workloads.MixByName("ctx-switch")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Cores, err = m.ForCores(cfg.Hier.Cores); err != nil {
			t.Fatal(err)
		}
		cfg.Workload = workloads.Workload{Name: m.Name}
		cfg.PhaseFlush = true
		return cfg
	}
	for _, tc := range []struct {
		name   string
		base   func() Config
		exempt map[string]string
	}{
		{"homogeneous", homogeneous, homogeneousExempt},
		{"mix", mix, mixExempt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.base().Signature()
			if tc.base().Signature() != want {
				t.Fatal("signature of one config is not stable")
			}
			var walked int
			for _, l := range leaves(reflect.ValueOf(tc.base()), "", nil) {
				walked++
				if reason := exemption(l.path, tc.exempt); reason != "" {
					continue
				}
				// Two perturbations, so a suffix that notices a change but
				// renders only part of the field still fails.
				seen := map[string]int{want: 0}
				for step := 1; step <= 2; step++ {
					cfg := tc.base()
					if !perturb(locate(reflect.ValueOf(&cfg).Elem(), l.steps), step) {
						continue
					}
					sig := cfg.Signature()
					if prev, dup := seen[sig]; dup {
						t.Errorf("%s: perturbation %d leaves the signature of perturbation %d", l.path, step, prev)
					}
					seen[sig] = step
				}
			}
			if walked < 50 {
				t.Fatalf("walked %d leaf fields; the walk lost its way", walked)
			}
		})
	}
}

// exemption returns the reason path may be ignored, or "".
func exemption(path string, extra map[string]string) string {
	for _, m := range []map[string]string{signatureExempt, extra} {
		for k, reason := range m {
			if path == k || strings.HasPrefix(path, k+".") || strings.HasPrefix(path, k+"[]") {
				return reason
			}
		}
	}
	return ""
}

// leaf is one perturbable field: its dotted path and the field/element
// indices that reach it from the root.
type leaf struct {
	path  string
	steps []int
}

// leaves lists v's leaf fields. Structs and non-empty slices are walked
// into; a scalar, a map, or an empty slice is one leaf.
func leaves(v reflect.Value, path string, steps []int) []leaf {
	at := func(i int) []int { return append(append([]int(nil), steps...), i) }
	switch v.Kind() {
	case reflect.Struct:
		var out []leaf
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			out = append(out, leaves(v.Field(i), name, at(i))...)
		}
		return out
	case reflect.Slice:
		if v.Len() == 0 {
			return []leaf{{path, steps}}
		}
		var out []leaf
		for i := 0; i < v.Len(); i++ {
			out = append(out, leaves(v.Index(i), path+"[]", at(i))...)
		}
		return out
	}
	return []leaf{{path, steps}}
}

// locate follows steps from root: a field index into a struct, an
// element index into a slice.
func locate(root reflect.Value, steps []int) reflect.Value {
	v := root
	for _, i := range steps {
		if v.Kind() == reflect.Slice {
			v = v.Index(i)
		} else {
			v = v.Field(i)
		}
	}
	return v
}

// perturb moves one leaf away from its value in the base config by step
// (1 or 2), giving two distinct values; it reports false when the kind
// has no value for that step (a bool has one other value).
func perturb(v reflect.Value, step int) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
		return step == 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + int64(step))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + uint64(step))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5*float64(step))
	case reflect.String:
		v.SetString(v.String() + strings.Repeat("x", step))
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for _, k := range v.MapKeys() {
			m.SetMapIndex(k, v.MapIndex(k))
		}
		m.SetMapIndex(reflect.ValueOf("perturbed").Convert(v.Type().Key()), reflect.ValueOf(step).Convert(v.Type().Elem()))
		v.Set(m)
	case reflect.Slice:
		for i := 0; i < step; i++ {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		}
	default:
		panic(fmt.Sprintf("perturb: unhandled kind %s", v.Kind()))
	}
	return true
}
