package stream

import "testing"

// TestTrieCollisionsAndFolds drives the trie with hand-picked hashes: IDs
// whose whole 64-bit hashes collide (the bucket below the last level),
// IDs that share every level but the last, and unrelated ones. Every
// get, replace and remove must answer by ID, removals must fold
// single-leaf sub-tries back up, and a root published before the writes
// (an older generation) must still hold exactly what it held.
func TestTrieCollisionsAndFolds(t *testing.T) {
	hashes := map[string]uint64{
		"c1": 0xdeadbeefcafef00d, "c2": 0xdeadbeefcafef00d, "c3": 0xdeadbeefcafef00d,
		"n1": 0x0eadbeefcafef00d, "n2": 0x1eadbeefcafef00d,
		"u1": 1, "u2": 2, "u3": 33,
	}
	ids := []string{"c1", "u1", "c2", "n1", "u2", "c3", "n2", "u3"}
	rec := map[string]*admission{}
	for i, id := range ids {
		rec[id] = &admission{id: id, ord: uint64(i), hash: hashes[id]}
	}
	get := func(root *node, id string) (leaf, bool) { return root.get(hashes[id], id) }

	root := &node{}
	gen := uint64(1)
	for _, id := range ids {
		var existed bool
		root, _, existed = root.put(gen, 0, leaf{rec: rec[id]})
		if existed {
			t.Fatalf("put %s: reported an existing leaf", id)
		}
	}
	frozen := root
	want := func(root *node, open []string) {
		t.Helper()
		got := root.admitted(len(open))
		if len(got) != len(open) {
			t.Fatalf("admitted %d leaves, want %v", len(got), open)
		}
		for i, l := range got {
			if l.rec.id != open[i] {
				t.Fatalf("admission order %d: %s, want %s", i, l.rec.id, open[i])
			}
			if g, ok := get(root, open[i]); !ok || g.rec != rec[open[i]] {
				t.Fatalf("get %s: %v %v", open[i], g, ok)
			}
		}
		if _, ok := root.get(hashes["c1"], "c4"); ok {
			t.Fatal("get found an absent ID in the collision bucket")
		}
	}
	want(root, ids)

	gen++ // publish: frozen is now read-only
	root, old, existed := root.put(gen, 0, leaf{rec: rec["c2"], serving: true})
	if !existed || old.serving {
		t.Fatalf("replacing c2: old %+v existed %v", old, existed)
	}
	if l, _ := get(root, "c2"); !l.serving {
		t.Fatal("c2 not serving after replace")
	}
	if l, _ := get(frozen, "c2"); l.serving {
		t.Fatal("replace wrote through a published node")
	}
	for _, id := range []string{"c2", "n1", "u1", "c1", "absent"} {
		var ok bool
		h, found := hashes[id]
		if !found {
			h = hashes["c1"]
		}
		root, old, ok = root.remove(gen, 0, h, id)
		if ok != found || (ok && old.rec.id != id) {
			t.Fatalf("remove %s: old %+v ok %v", id, old, ok)
		}
	}
	want(root, []string{"u2", "c3", "n2", "u3"})
	want(frozen, ids)
	// c3 and n2 differ only in the last level's bits, so they still share
	// a chain of sub-tries; with n2 gone, c3 folds back to the root.
	root, _, _ = root.remove(gen, 0, hashes["n2"], "n2")
	if _, i := root.index(hashes["c3"], 0); root.slots[i].sub != nil || root.slots[i].rec.id != "c3" {
		t.Errorf("c3 did not fold into the root: %+v", root.slots[i])
	}
	want(root, []string{"u2", "c3", "u3"})
	for _, id := range []string{"u2", "c3", "u3"} {
		root, _, _ = root.remove(gen, 0, hashes[id], id)
	}
	if len(root.slots) != 0 || root.bitmap != 0 {
		t.Fatalf("emptied trie still holds %d slots", len(root.slots))
	}
	want(frozen, ids)
}
