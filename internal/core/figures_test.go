package core

import (
	"testing"

	"axml/internal/automata"
	"axml/internal/regex"
)

// TestFig5ComplementStructure: the paper draws Ā for schema (**) as a
// 7-state complete DFA (p0–p6, accepting p0, p1, p2 and the sink p6). The
// minimal complete complement we build must have exactly that shape.
func TestFig5ComplementStructure(t *testing.T) {
	c, _ := PaperPairForTest(t)
	target := regex.MustParse(c.Table, "title.date.temp.(TimeOut|exhibit*)")
	compl := automata.ComplementOfRegex(target, c.Alphabet()).Minimize()
	if got := compl.NumStates(); got != 7 {
		t.Errorf("minimal complement states = %d, paper draws 7 (p0..p6)", got)
	}
	accepting := 0
	for _, a := range compl.Accept {
		if a {
			accepting++
		}
	}
	// Accepting: p0, p1, p2, p6 — prefixes that cannot yet be words, plus
	// the sink. p3 (title.date.temp), p4 (…TimeOut) and p5 (…exhibit*) are
	// words of the target, hence non-accepting in the complement.
	if accepting != 4 {
		t.Errorf("accepting complement states = %d, paper draws 4 (p0,p1,p2,p6)", accepting)
	}
	// Exactly one dead-for-rewriter state: the sink p6 from which the
	// complement accepts everything (= the target can never be reached).
	original := automata.Determinize(automata.FromRegex(target), c.Alphabet()).Complete().Minimize()
	dead := original.DeadStates()
	deadCount := 0
	for _, d := range dead {
		if d {
			deadCount++
		}
	}
	if deadCount != 1 {
		t.Errorf("dead states in target DFA = %d, want 1 (the p6 sink)", deadCount)
	}
}

// TestFig10TargetAutomatonStructure: the paper's Figure 10 automaton A for
// schema (***) has 5 states (p0..p4, accepting p3 and p4).
func TestFig10TargetAutomatonStructure(t *testing.T) {
	c, _ := PaperPairForTest(t)
	target := regex.MustParse(c.Table, "title.date.temp.exhibit*")
	// The paper's drawing is the *incomplete* automaton: minimize after
	// determinizing but count only live states (no sink).
	dfa := automata.Determinize(automata.FromRegex(target), c.Alphabet()).Minimize()
	dead := dfa.DeadStates()
	live, accepting := 0, 0
	for s := 0; s < dfa.NumStates(); s++ {
		if !dead[s] {
			live++
			if dfa.Accept[s] {
				accepting++
			}
		}
	}
	// p3 and p4 merge under minimization (both accept exhibit*), so the
	// minimal machine has 4 live states; the paper draws the Glushkov-style
	// 5-state version. Assert the language-level facts instead: 4 or 5 live
	// states and at least one accepting.
	if live != 4 && live != 5 {
		t.Errorf("live states = %d, expected 4 (minimal) or 5 (paper drawing)", live)
	}
	if accepting == 0 {
		t.Error("no accepting live state")
	}
}

// TestFig6MarkingStructure digs into the product of Figure 6: the two fork
// groups must carry the paper's decisions — Get_Temp's call option unmarked
// (invoke it), TimeOut's keep option unmarked (leave it).
func TestFig6MarkingStructure(t *testing.T) {
	c, w := PaperPairForTest(t)
	target := regex.MustParse(c.Table, "title.date.temp.(TimeOut|exhibit*)")
	a, err := AnalyzeSafe(c, w, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Safe() {
		t.Fatal("must be safe")
	}
	getTemp := c.Table.Intern("Get_Temp")
	timeOut := c.Table.Intern("TimeOut")
	// Walk the reachable-unmarked region and inspect fork groups.
	sawGetTemp, sawTimeOut := false, false
	for s := 0; s < len(a.QState); s++ {
		if a.Marked[s] {
			continue
		}
		for _, g := range a.Groups[s] {
			if !g.Fork {
				continue
			}
			keep, call := g.Options[0], g.Options[1]
			switch g.FuncSym {
			case getTemp:
				sawGetTemp = true
				if !call.ViaCall {
					t.Fatal("option order broken")
				}
				if a.Marked[call.To] {
					t.Error("Get_Temp's call option must be unmarked (the paper invokes it)")
				}
				if !a.Marked[keep.To] {
					t.Error("Get_Temp's keep option must be marked (keeping it cannot match temp)")
				}
			case timeOut:
				sawTimeOut = true
				if a.Marked[keep.To] {
					t.Error("TimeOut's keep option must be unmarked (the paper keeps it)")
				}
			}
		}
	}
	if !sawGetTemp || !sawTimeOut {
		t.Errorf("fork groups missing: Get_Temp=%v TimeOut=%v", sawGetTemp, sawTimeOut)
	}
}

// TestFig8MarkingStructure: in the Figure 8 product both options of the
// TimeOut fork are marked — performances may come back, exhibits* may not
// cover them — and consequently the initial state is marked.
func TestFig8MarkingStructure(t *testing.T) {
	c, w := PaperPairForTest(t)
	target := regex.MustParse(c.Table, "title.date.temp.exhibit*")
	a, err := AnalyzeSafe(c, w, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Safe() {
		t.Fatal("must be unsafe")
	}
	timeOut := c.Table.Intern("TimeOut")
	// Find the TimeOut fork reachable along the would-be-good prefix (its
	// state may itself be marked; the paper's [q3,p3] is marked because both
	// options are).
	found := false
	for s := 0; s < len(a.QState); s++ {
		for _, g := range a.Groups[s] {
			if g.Fork && g.FuncSym == timeOut {
				keep, call := g.Options[0], g.Options[1]
				if !a.Marked[keep.To] || !a.Marked[call.To] {
					continue // a TimeOut fork elsewhere (e.g. behind a dead prefix)
				}
				found = true
			}
		}
	}
	if !found {
		t.Error("no TimeOut fork with both options marked (the Figure 8 situation)")
	}
}
