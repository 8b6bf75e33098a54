package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Property: every well-formed datum survives the wire round-trip intact.
func TestDatumWireRoundTripProperty(t *testing.T) {
	f := func(seq uint64, atRaw int64, value float64, valid bool, quality float64) bool {
		if math.IsNaN(value) || math.IsInf(value, 0) || math.IsNaN(quality) || math.IsInf(quality, 0) {
			return true // NaN never compares equal; senders never produce non-finite values
		}
		at := sim.Time(atRaw % (1 << 40))
		if at < 0 {
			at = -at
		}
		in := Datum{Topic: "dev/cap", Value: value, Valid: valid, Quality: quality, Sampled: at}
		codec := NewBinaryCodec()
		data, err := codec.AppendEnvelope(nil, MsgPublish, "dev", "mgr", seq, at, in)
		if err != nil {
			return false
		}
		env, err := codec.Decode(data)
		if err != nil || env.Seq != seq || env.From != "dev" || env.Type != MsgPublish {
			return false
		}
		var out Datum
		if err := env.DecodeBody(&out); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: command bodies round-trip including argument maps.
func TestCommandWireRoundTripProperty(t *testing.T) {
	f := func(id uint64, rate float64, hasArgs bool) bool {
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			return true
		}
		in := Command{ID: id, Name: "set-basal"}
		if hasArgs {
			in.Args = map[string]float64{"rate": rate}
		}
		codec := NewBinaryCodec()
		data, err := codec.AppendEnvelope(nil, MsgCommand, "mgr", "pump", 1, 0, in)
		if err != nil {
			return false
		}
		env, err := codec.Decode(data)
		if err != nil {
			return false
		}
		var out Command
		if err := env.DecodeBody(&out); err != nil {
			return false
		}
		if out.ID != in.ID || out.Name != in.Name {
			return false
		}
		if hasArgs {
			return out.Args != nil && out.Args["rate"] == rate
		}
		return len(out.Args) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
