package sim

import (
	"reflect"
	"runtime"
	"testing"

	"ctdvs/internal/ir"
)

// TestResetClearsHookAndState verifies the pool-return contract: after Reset,
// a machine behaves exactly like a freshly constructed one and carries no
// edge hook from its previous borrower.
func TestResetClearsHookAndState(t *testing.T) {
	p := computeOnly(50, 100)
	in := ir.Input{Name: "default", Seed: 1}

	mach := MustNew(DefaultConfig())
	hooked := 0
	mach.EdgeHook = func(from, to int) { hooked++ }
	if _, err := mach.Run(p, in, mode800()); err != nil {
		t.Fatal(err)
	}
	if hooked == 0 {
		t.Fatal("edge hook never fired")
	}

	mach.Reset()
	if mach.EdgeHook != nil {
		t.Error("Reset left the edge hook installed")
	}

	fresh := MustNew(DefaultConfig())
	got, err := mach.Run(p, in, mode800())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(p, in, mode800())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-Reset run differs from fresh machine:\ngot  %+v\nwant %+v", got, want)
	}
}

// machineSink keeps TestNewMachineFootprint's machines on the heap.
var machineSink *Machine

// TestNewMachineFootprint pins what a production machine allocates up front:
// the configuration and the branch predictor, well under 16 KiB. The compiled
// kernel sizes its caches on first run, so tag arrays that only the reference
// interpreter reads (about 162 KiB at the default configuration) must not
// creep back into New.
func TestNewMachineFootprint(t *testing.T) {
	const n = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		machineSink = MustNew(DefaultConfig())
	}
	runtime.ReadMemStats(&after)
	if perNew := (after.TotalAlloc - before.TotalAlloc) / n; perNew >= 16<<10 {
		t.Errorf("sim.New(DefaultConfig()) allocates %d bytes, want < %d", perNew, 16<<10)
	}
}
