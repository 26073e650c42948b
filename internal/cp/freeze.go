package cp

import (
	"fmt"

	"dhpf/internal/ir"
)

// This file is the selection's freeze/thaw surface for the pass
// scheduler: a Selection decomposes into independent per-procedure
// slices (SelectBaseInto, the propagation phases and the per-procedure
// half of SelectInterprocPartial are all strictly procedure-local, and §6's
// cross-procedure input — the callees' entry CPs — is covered by the
// scheduler's transitive environment fingerprint), so a procedure's
// completed selection state can be extracted after §6, stored, and
// installed into a fresh Selection on a later compile of identical
// procedure text.

// ProcNote is one frozen decision note: the intra-procedure ordering key
// (noteKey minus the bottom-up procedure index, which is reassigned at
// install time) plus the rendered text.
type ProcNote struct {
	Late, Entry, Top, Phase, Loop, Sub int
	Text                               string
}

// ProcSelection is the per-procedure slice of a Selection: the chosen
// CPs of the procedure's statements (keyed by statement ID), its entry
// CP, the §5 distribution-marked pairs (as statement-ID pairs) and the
// decision notes attributed to the procedure, in emission order.
type ProcSelection struct {
	CPs   map[int]*CP
	Entry *CP
	// HasEntry distinguishes a recorded nil entry CP (no uniform CP)
	// from state frozen before §6 ran at all.
	HasEntry bool
	Marked   [][2]int
	Notes    []ProcNote
}

// Clone returns a structurally independent copy of the CP.  Term and
// subscript slices are copied; the affine expressions inside are value
// types whose operations never mutate in place, so sharing their term
// slices is safe.
func (c *CP) Clone() *CP {
	if c == nil {
		return nil
	}
	out := &CP{Terms: make([]Term, len(c.Terms))}
	for i, t := range c.Terms {
		nt := Term{Array: t.Array, Subs: make([]HomeSub, len(t.Subs))}
		copy(nt.Subs, t.Subs)
		out.Terms[i] = nt
	}
	return out
}

// ExtractProc returns a deep copy of the procedure's selection slice.
// pi is the procedure's bottom-up call-graph index (its position in
// Context.Callees order), which attributes the decision notes.
func (s *Selection) ExtractProc(proc *ir.Procedure, pi int) *ProcSelection {
	out := &ProcSelection{CPs: map[int]*CP{}}
	ir.Walk(proc.Body, func(st ir.Stmt, _ []*ir.Loop) bool {
		if c, ok := s.CPs[st.StmtID()]; ok {
			out.CPs[st.StmtID()] = c.Clone()
		}
		return true
	})
	if entry, ok := s.Entry[proc.Name]; ok {
		out.Entry, out.HasEntry = entry.Clone(), true
	}
	for _, pair := range s.Marked[proc] {
		out.Marked = append(out.Marked, [2]int{pair[0].ID, pair[1].ID})
	}
	for _, r := range s.notes {
		if r.key.proc != pi {
			continue
		}
		out.Notes = append(out.Notes, ProcNote{
			Late: r.key.late, Entry: r.key.entry, Top: r.key.top,
			Phase: r.key.phase, Loop: r.key.loop, Sub: r.key.sub,
			Text: r.text,
		})
	}
	return out
}

// InstallProc merges an extracted slice into the selection, attributing
// its notes to bottom-up index pi.  The caller must already have
// relocated statement IDs (CP keys, marked pairs, IDs inside note text)
// onto the current program.  The report ordering comes out identical to
// a fresh selection: note keys carry the full intra-procedure position,
// ties keep their frozen emission order under Notes' stable sort, and
// distinct procedures never share a key.proc.
func (s *Selection) InstallProc(proc *ir.Procedure, pi int, ps *ProcSelection) error {
	marked := make([][2]*ir.Assign, 0, len(ps.Marked))
	if len(ps.Marked) > 0 {
		byID := map[int]*ir.Assign{}
		ir.Walk(proc.Body, func(st ir.Stmt, _ []*ir.Loop) bool {
			if a, ok := st.(*ir.Assign); ok {
				byID[a.ID] = a
			}
			return true
		})
		for _, pair := range ps.Marked {
			a, b := byID[pair[0]], byID[pair[1]]
			if a == nil || b == nil {
				return fmt.Errorf("cp: marked pair (stmt %d, stmt %d) not in procedure %s", pair[0], pair[1], proc.Name)
			}
			marked = append(marked, [2]*ir.Assign{a, b})
		}
	}
	for id, c := range ps.CPs {
		s.CPs[id] = c.Clone()
	}
	if ps.HasEntry {
		s.Entry[proc.Name] = ps.Entry.Clone()
	}
	if len(marked) > 0 {
		s.Marked[proc] = append(s.Marked[proc], marked...)
	}
	for _, n := range ps.Notes {
		s.notes = append(s.notes, noteRec{
			key: noteKey{
				late: n.Late, proc: pi, entry: n.Entry, top: n.Top,
				phase: n.Phase, loop: n.Loop, sub: n.Sub,
			},
			text: n.Text,
		})
		s.seq++
	}
	return nil
}
