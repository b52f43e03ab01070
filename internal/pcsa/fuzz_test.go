package pcsa

import (
	"bytes"
	"math"
	"testing"
)

// FuzzPCSAMarshalRoundTrip checks the binary codec on arbitrary input:
// anything UnmarshalBinary accepts must re-marshal to the exact input
// bytes (the format is canonical — the header fixes nmaps and the
// payload length is enforced exactly), estimate to a finite non-negative
// count, and survive a second round trip as a compatible equal sketch.
func FuzzPCSAMarshalRoundTrip(f *testing.F) {
	// Seed with real sketches: empty, small, default-size, saturated.
	for _, seed := range []struct {
		nmaps int
		seed  uint64
		n     int
	}{
		{1, 0, 0}, {8, 7, 5}, {64, 42, 1000}, {DefaultMaps, 0, 100000},
	} {
		s := MustNew(seed.nmaps, seed.seed)
		for i := 0; i < seed.n; i++ {
			s.AddUint64(uint64(i))
		}
		b, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// And with near-misses: truncated header, bad magic, wrong length.
	f.Add([]byte("PCSA"))
	f.Add([]byte("PCSB\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(bytes.Repeat([]byte{0xff}, 17))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		if err := s.UnmarshalBinary(data); err != nil {
			return // rejected input: nothing more to hold
		}
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal after successful unmarshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip not canonical:\n in  %x\n out %x", data, out)
		}
		e := s.Estimate()
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			t.Fatalf("estimate %v from accepted payload %x", e, data)
		}
		var s2 Sketch
		if err := s2.UnmarshalBinary(out); err != nil {
			t.Fatalf("second unmarshal rejected own output: %v", err)
		}
		if !s.Compatible(&s2) || s.Checksum() != s2.Checksum() {
			t.Fatal("second round trip changed the sketch")
		}
	})
}

// FuzzEditUnion checks the Population edit contract: for a random
// population (empty members and an empty population included), a random
// member dropped or none, and a random non-member added or none, the edit
// estimate is bit-equal to Union over the edited member list, and 0 when
// that list is empty.
func FuzzEditUnion(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(2), true, uint8(1))
	f.Add(uint64(2), uint8(0), uint8(0), true, uint8(0))
	f.Add(uint64(3), uint8(1), uint8(0), false, uint8(2))
	f.Add(uint64(4), uint8(5), uint8(9), false, uint8(1))
	f.Add(uint64(5), uint8(3), uint8(1), true, uint8(2))

	f.Fuzz(func(t *testing.T, seed uint64, members, drop uint8, withAdd bool, mapsSel uint8) {
		nmaps := []int{1, 8, 64}[int(mapsSel)%3]
		rng := splitmix64(seed)
		next := func(n uint64) uint64 {
			rng = splitmix64(rng)
			return rng % n
		}
		// Overlapping ID ranges, some empty, so bits are held by one,
		// several or no members.
		sketch := func() *Sketch {
			s := MustNew(nmaps, 9)
			from, n := next(400), next(4)*next(200)
			for id := from; id < from+n; id++ {
				s.AddUint64(id)
			}
			return s
		}
		var pop Population
		var sks []*Sketch
		for i := 0; i < int(members%7); i++ {
			sk := sketch()
			if err := pop.Add(sk); err != nil {
				t.Fatal(err)
			}
			sks = append(sks, sk)
		}
		var dropSk, addSk *Sketch
		var edited []*Sketch
		di := int(drop) % (len(sks) + 1) // len(sks) means no drop
		for i, sk := range sks {
			if i == di {
				dropSk = sk
				continue
			}
			edited = append(edited, sk)
		}
		if withAdd {
			addSk = sketch()
			edited = append(edited, addSk)
		}
		got, err := pop.EditEstimate(dropSk, addSk)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		if len(edited) > 0 {
			u, err := Union(edited...)
			if err != nil {
				t.Fatal(err)
			}
			want = u.Estimate()
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("edit estimate %v, union of %d edited members %v (drop %v, add %v)",
				got, len(edited), want, dropSk != nil, addSk != nil)
		}
	})
}
