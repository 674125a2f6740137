package schedfile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

func TestGraphSpecRoundTripsCorpus(t *testing.T) {
	t.Parallel()
	for _, gs := range workloads.Graphs() {
		gs := gs
		t.Run(gs.Name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := SaveGraphSpec(&buf, gs, 0, 7, 1e-6); err != nil {
				t.Fatal(err)
			}
			f, err := LoadGraphSpec(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if f.LevelCount() != 7 || f.Regulator() != volt.DefaultRegulator().WithCapacitance(1e-6) {
				t.Errorf("round trip read %d levels under %+v", f.LevelCount(), f.Regulator())
			}
			got, err := f.Spec()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, gs) {
				t.Errorf("round trip changed the spec:\n got %+v\nwant %+v", got, gs)
			}
			// Canonical encoding is stable.
			again, err := f.EncodeGraph()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, buf.Bytes()) {
				t.Error("re-encoding the loaded spec changed the bytes")
			}
			// The spec builds a valid executable graph.
			if _, err := got.Build(0.02); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLoadGraphSpecRejects(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name, in, want string
	}{
		{"empty", `{}`, "version"},
		{"bad-version", `{"version":9,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[{"bench":"epic"}],"edges":[]}`, "version"},
		{"no-name", `{"version":1,"cores":1,"deadline_frac":0.5,"tasks":[{"bench":"epic"}],"edges":[]}`, "name"},
		{"no-cores", `{"version":1,"name":"g","deadline_frac":0.5,"tasks":[{"bench":"epic"}],"edges":[]}`, "cores"},
		{"both-deadlines", `{"version":1,"name":"g","cores":1,"deadline_us":5,"deadline_frac":0.5,"tasks":[{"bench":"epic"}],"edges":[]}`, "exactly one"},
		{"no-deadline", `{"version":1,"name":"g","cores":1,"tasks":[{"bench":"epic"}],"edges":[]}`, "exactly one"},
		{"no-tasks", `{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[],"edges":[]}`, "no tasks"},
		{"cycle", `{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[{"bench":"a"},{"bench":"b"}],"edges":[[0,1],[1,0]]}`, "cycle"},
		{"dangling", `{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[{"bench":"a"}],"edges":[[0,7]]}`, "dangling"},
		{"self-edge", `{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[{"bench":"a"}],"edges":[[0,0]]}`, "self edge"},
		{"dup-edge", `{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[{"bench":"a"},{"bench":"b"}],"edges":[[0,1],[0,1]]}`, "duplicate edge"},
		{"unnamed-bench", `{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[{"bench":""}],"edges":[]}`, "benchmark"},
		{"unknown-field", `{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[{"bench":"a"}],"edges":[],"bogus":1}`, "bogus"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := LoadGraphSpec(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load(%s): err %v, want mention of %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestGraphSpecVersions pins how each spec version resolves its solve
// parameters: version 2 carries its level count and capacitance, version 1
// reads as 3 levels under the default regulator, and a spec whose fields do
// not fit its version is rejected.
func TestGraphSpecVersions(t *testing.T) {
	t.Parallel()
	const body = `"name":"g","cores":2,"deadline_frac":0.5,"tasks":[{"bench":"epic"},{"bench":"mpg123"}],"edges":[[0,1]]`
	for _, tc := range []struct {
		in     string
		levels int
		reg    volt.Regulator
	}{
		{`{"version":1,` + body + `}`, 3, volt.DefaultRegulator()},
		{`{"version":2,"levels":13,"capacitance_f":1e-4,` + body + `}`, 13, volt.DefaultRegulator().WithCapacitance(1e-4)},
		{`{"version":2,"levels":3,"capacitance_f":1e-5,` + body + `}`, 3, volt.DefaultRegulator()},
	} {
		f, err := LoadGraphSpec(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("Load(%s): %v", tc.in, err)
		}
		if f.LevelCount() != tc.levels || f.Regulator() != tc.reg {
			t.Errorf("Load(%s): %d levels under %+v, want %d under %+v", tc.in, f.LevelCount(), f.Regulator(), tc.levels, tc.reg)
		}
	}
	for _, tc := range []struct{ in, want string }{
		{`{"version":2,"capacitance_f":1e-5,` + body + `}`, "levels"},
		{`{"version":2,"levels":5,"capacitance_f":1e-5,` + body + `}`, "levels"},
		{`{"version":2,"levels":7,` + body + `}`, "capacitance"},
		{`{"version":2,"levels":7,"capacitance_f":-1e-6,` + body + `}`, "capacitance"},
		{`{"version":2,"levels":7,"capacitance_f":1e309,` + body + `}`, "capacitance_f"},
		{`{"version":1,"levels":7,` + body + `}`, "version 1"},
		{`{"version":1,"capacitance_f":1e-6,` + body + `}`, "version 1"},
	} {
		if _, err := LoadGraphSpec(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load(%s): err %v, want mention of %q", tc.in, err, tc.want)
		}
	}
	if _, err := NewGraphFile(workloads.MPIMix(2), 0, 4, 1e-5); err == nil {
		t.Error("NewGraphFile accepted a 4-level solve")
	}
}

func TestLoadGraphSpecRejectsOversized(t *testing.T) {
	t.Parallel()
	var b strings.Builder
	b.WriteString(`{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[`)
	for i := 0; i <= ir.MaxTasks; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"bench":"epic"}`)
	}
	b.WriteString(`],"edges":[]}`)
	_, err := LoadGraphSpec(strings.NewReader(b.String()))
	if err == nil || !strings.Contains(err.Error(), "max") {
		t.Errorf("oversized spec accepted: %v", err)
	}
}

func TestValidateTopologyRejectsOversizedEdges(t *testing.T) {
	t.Parallel()
	edges := make([][2]int, MaxGraphEdges+1)
	for i := range edges {
		edges[i] = [2]int{0, 1}
	}
	if err := ValidateTopology(2, edges); err == nil || !strings.Contains(err.Error(), "edges") {
		t.Errorf("oversized edge list accepted: %v", err)
	}
}

// FuzzLoadGraphSpec holds the task-graph spec decoder to its contract: never
// panic, reject cyclic/dangling/oversized structures, and round-trip anything
// it accepts byte-identically.
func FuzzLoadGraphSpec(f *testing.F) {
	for _, gs := range workloads.Graphs() {
		var buf bytes.Buffer
		if err := SaveGraphSpec(&buf, gs, 0, 3, 10e-6); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add(`{"version":2,"name":"g","cores":2,"levels":13,"capacitance_f":1e-4,"deadline_us":9000,"tasks":[{"bench":"epic"},{"bench":"mpg123","input":1}],"edges":[[0,1]]}`)
	f.Add(`{}`)
	f.Add(`{"version":1,"name":"g","cores":2,"deadline_frac":0.5,"tasks":[{"bench":"epic"},{"bench":"mpg123"}],"edges":[[0,1]]}`)
	f.Add(`{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[{"bench":"a"},{"bench":"b"}],"edges":[[0,1],[1,0]]}`)
	f.Add(`{"version":1,"name":"g","cores":1,"deadline_frac":0.5,"tasks":[{"bench":"a"}],"edges":[[0,99]]}`)
	f.Add(`{"version":1,"name":"g","cores":1,"deadline_us":1e9,"tasks":[{"bench":"a"}],"edges":[[-1,0]]}`)
	f.Add(`[1,2,3]`)

	f.Fuzz(func(t *testing.T, data string) {
		gf, err := LoadGraphSpec(strings.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Everything accepted has a consistent, acyclic topology...
		if err := ValidateTopology(len(gf.Tasks), gf.Edges); err != nil {
			t.Fatalf("accepted spec fails topology validation: %v", err)
		}
		// ...and re-encodes to a byte-stable form that loads back equal.
		enc, err := gf.EncodeGraph()
		if err != nil {
			t.Fatalf("accepted spec failed to encode: %v", err)
		}
		gf2, err := LoadGraphSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-load of accepted spec failed: %v", err)
		}
		if !reflect.DeepEqual(gf, gf2) {
			t.Fatal("encode/load round trip changed the spec")
		}
		enc2, err := gf2.EncodeGraph()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding not byte-stable")
		}
	})
}
