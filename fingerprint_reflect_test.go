package mndmst

import (
	"reflect"
	"testing"
)

// TestFingerprintExhaustive walks Options by reflection and requires every
// field to move the fingerprint: Options holds only fields that change the
// answer, so a field the fingerprint ignored would silently alias results
// computed under different semantics in the serving layer's result cache.
// Execution plumbing belongs in ClusterConfig, not here.
func TestFingerprintExhaustive(t *testing.T) {
	// Some result-relevant fields are dead under the default base and
	// need one that makes them live.
	baseFor := map[string]Options{
		"UseGPU":      {Nodes: 4, Machine: CrayXC40},
		"GPUsPerNode": {Nodes: 4, Machine: CrayXC40, UseGPU: true},
	}
	// Fields whose kind-generic mutation below would be a no-op or
	// invalid get an explicit one. GPUsPerNode jumps to 3 because 0
	// normalizes to 1 under UseGPU; NodeSpeeds must match Nodes.
	mutate := map[string]func(o *Options){
		"Machine":     func(o *Options) { o.Machine = CrayXC40 },
		"GPUsPerNode": func(o *Options) { o.GPUsPerNode = 3 },
		"NodeSpeeds":  func(o *Options) { o.NodeSpeeds = []float64{1, 2, 1, 1} },
	}

	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		base, ok := baseFor[f.Name]
		if !ok {
			base = Options{Nodes: 4}
		}
		o := base
		if fn, ok := mutate[f.Name]; ok {
			fn(&o)
		} else {
			v := reflect.ValueOf(&o).Elem().Field(i)
			switch {
			case v.Kind() == reflect.Bool:
				v.SetBool(!v.Bool())
			case v.CanInt():
				v.SetInt(v.Int() + 1)
			case v.CanFloat():
				v.SetFloat(v.Float() + 0.5)
			default:
				t.Fatalf("Options.%s: no mutation rule for kind %s — give the new field "+
					"one in this test (mutate, or a new generic rule)", f.Name, f.Type.Kind())
			}
		}
		if o.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutating result-relevant Options.%s left the fingerprint unchanged (%q); "+
				"results computed under different semantics would alias in the cache",
				f.Name, base.Fingerprint())
		}
	}
}
