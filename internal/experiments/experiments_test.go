package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The experiment tables must reproduce the paper's qualitative shape: the
// absolute numbers are machine-dependent, but who wins and where the
// crossovers fall must hold on every run.

// TestFiguresVerdicts pins every cell of the figures table: the verdicts
// of Figures 6, 8 and 11, and the state counts of the automata behind them
// (A_w^1, the product, the lazy exploration and its sink prunes).
func TestFiguresVerdicts(t *testing.T) {
	tbl := Figures()
	want := [][]string{
		{"Fig6 safe into (**)", "title.date.temp.(TimeOut|exhibit*)", "safe", "10", "16", "11", "2"},
		{"Fig8 safe into (***)", "title.date.temp.exhibit*", "unsafe", "10", "15", "11", "3"},
		{"Fig11 possible into (***)", "title.date.temp.exhibit*", "possible", "10", "15", "-", "-"},
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		if strings.Join(row, " | ") != strings.Join(want[i], " | ") {
			t.Errorf("row %d = %v\nwant %v", i, row, want[i])
		}
	}
}

func TestComplementBlowupShape(t *testing.T) {
	tbl := ComplementBlowup([]int{4, 8}, 1)
	for i, want := range [][2]int{{7, 34}, {11, 514}} {
		if det, nondet := atoi(t, tbl.Rows[i][1]), atoi(t, tbl.Rows[i][3]); det != want[0] || nondet != want[1] {
			t.Errorf("n=%s: det/nondet states %d/%d, want %d/%d", tbl.Rows[i][0], det, nondet, want[0], want[1])
		}
	}
	// Non-deterministic complement states must grow ~2^n while deterministic
	// stays linear: at n=8 the gap must exceed an order of magnitude.
	row := tbl.Rows[1]
	det, nondet := atoi(t, row[1]), atoi(t, row[3])
	if nondet < det*10 {
		t.Errorf("expected exponential gap, det=%d nondet=%d", det, nondet)
	}
	// Deterministic grows linearly with n.
	det4 := atoi(t, tbl.Rows[0][1])
	if det > det4*4 {
		t.Errorf("deterministic complement grew superlinearly: %d -> %d", det4, det)
	}
}

func TestLazyPruningShape(t *testing.T) {
	tbl := LazyPruning(3)
	// The paper rows: eager states, lazy states, sink and mark prunes.
	for i, want := range []string{"safe 16 11 2 2", "unsafe 15 11 3 8"} {
		if got := strings.Join(tbl.Rows[i][1:], " "); got != want {
			t.Errorf("%s: %s, want %s", tbl.Rows[i][0], got, want)
		}
	}
	for _, row := range tbl.Rows {
		eager, lazy := atoi(t, row[2]), atoi(t, row[3])
		if lazy > eager {
			t.Errorf("%s: lazy explored more states (%d) than eager built (%d)", row[0], lazy, eager)
		}
	}
}

func TestMixedBenefitShape(t *testing.T) {
	tbl := MixedBenefit([]int{8}, 1)
	row := tbl.Rows[0]
	before, after := atoi(t, row[1]), atoi(t, row[3])
	if after >= before {
		t.Errorf("pre-invocation should shrink the analysis: before=%d after=%d", before, after)
	}
}

func TestSafeScalingMonotone(t *testing.T) {
	tbl := SafeScaling([]int{4, 16}, []int{1}, 1)
	small, large := atoi(t, tbl.Rows[0][3]), atoi(t, tbl.Rows[1][3])
	if large <= small {
		t.Errorf("product states should grow with n: %d -> %d", small, large)
	}
	// Polynomial, not exponential: 4x the schema should stay well under
	// 100x the states.
	if large > small*100 {
		t.Errorf("suspicious growth for deterministic schemas: %d -> %d", small, large)
	}
}

func TestSchemaRewriteVerdicts(t *testing.T) {
	tbl := SchemaRewrite(nil, 1)
	want := map[string]string{
		"(*) -> (*)":   "safe",
		"(*) -> (**)":  "safe",
		"(*) -> (***)": "unsafe",
	}
	for _, row := range tbl.Rows {
		if w, ok := want[row[0]]; ok && row[2] != w {
			t.Errorf("%s: verdict %s want %s", row[0], row[2], w)
		}
	}
}

func TestKDepthGrowthShape(t *testing.T) {
	tbl := KDepthGrowth([]int{1, 3})
	// With k=1 the handle returned by the first call cannot be chased.
	if tbl.Rows[0][3] == "false" {
		// The simulated handle may dry up immediately; both outcomes are
		// legal, but calls must stay within the k bound.
		if atoi(t, tbl.Rows[0][1]) > 1 {
			t.Errorf("k=1 made %s calls", tbl.Rows[0][1])
		}
	}
}

func TestParallelSpeedupShape(t *testing.T) {
	// With 5ms of latency on 8 independent calls, degree 4 must overlap
	// enough round-trips to beat degree 1 outright; the precise factor is
	// machine-dependent and gated in CI by axml-bench -min-speedup.
	tbl := ParallelSpeedup([]int{1, 4}, []time.Duration{5 * time.Millisecond}, []int{8}, 1)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	parseWall := func(s string) float64 {
		var ms float64
		if _, err := fmt.Sscanf(s, "%fms", &ms); err != nil {
			t.Fatalf("wall %q: %v", s, err)
		}
		return ms
	}
	seq, par := parseWall(tbl.Rows[0][3]), parseWall(tbl.Rows[1][3])
	if par >= seq {
		t.Errorf("degree 4 (%vms) not faster than degree 1 (%vms)", par, seq)
	}
}

func TestTableFprint(t *testing.T) {
	var b strings.Builder
	Figures().Fprint(&b)
	out := b.String()
	for _, want := range []string{"figures", "verdict", "Fig6"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	all := All()
	if len(all) != 10 {
		t.Fatalf("experiments = %d", len(all))
	}
	for _, e := range all {
		tbl := e.Run()
		if tbl.ID == "" || tbl.ID != e.Head.ID || tbl.Title != e.Head.Title || len(tbl.Rows) == 0 {
			t.Errorf("table %q (listed as %q) is empty or misnamed", tbl.ID, e.Head.ID)
		}
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}
