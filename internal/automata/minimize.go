package automata

// Minimize returns an equivalent complete DFA with the minimum number of
// states, via Moore partition refinement (quadratic, which is ample for the
// schema-sized automata this repository manipulates; the experiments that
// count states all minimize first so that eager/lazy comparisons are about
// *exploration*, not representation).
func (d *DFA) Minimize() *DFA {
	c := d.Complete()
	n := c.NumStates()
	cols := len(c.Alphabet) + 1

	// part[s] is the block id of state s; start with accept / non-accept.
	part := make([]int, n)
	for s := 0; s < n; s++ {
		if c.Accept[s] {
			part[s] = 1
		}
	}
	numBlocks := 2
	if n > 0 {
		// All-accepting or all-rejecting machines start with one block.
		first := part[0]
		uniform := true
		for _, p := range part {
			if p != first {
				uniform = false
				break
			}
		}
		if uniform {
			for s := range part {
				part[s] = 0
			}
			numBlocks = 1
		}
	}

	for {
		// Signature of a state: its block plus the blocks of its successors.
		type sig struct {
			block int
			key   string
		}
		index := map[sig]int{}
		next := make([]int, n)
		fresh := 0
		for s := 0; s < n; s++ {
			key := make([]byte, 0, cols*3)
			for col := 0; col < cols; col++ {
				b := part[c.Trans[s][col]]
				key = append(key, byte(b), byte(b>>8), byte(b>>16))
			}
			sg := sig{part[s], string(key)}
			id, ok := index[sg]
			if !ok {
				id = fresh
				fresh++
				index[sg] = id
			}
			next[s] = id
		}
		if fresh == numBlocks {
			break
		}
		part, numBlocks = next, fresh
	}

	out := &DFA{
		Alphabet: c.Alphabet,
		Start:    State(part[c.Start]),
		Accept:   make([]bool, numBlocks),
		Trans:    make([][]State, numBlocks),
	}
	for s := 0; s < n; s++ {
		b := part[s]
		if out.Trans[b] != nil {
			continue
		}
		out.Accept[b] = c.Accept[s]
		row := make([]State, cols)
		for col := 0; col < cols; col++ {
			row[col] = State(part[c.Trans[s][col]])
		}
		out.Trans[b] = row
	}
	return out
}
