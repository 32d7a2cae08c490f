package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/mring"
	"repro/internal/wire"
)

// TestCodecRoundTrip pins that every control message decodes to what was
// encoded, and that maps encode in sorted key order (one message, one
// encoding).
func TestCodecRoundTrip(t *testing.T) {
	schema := mring.Schema{"a", "b"}
	frags := map[string]Frag{
		"z": {Schema: schema, Buckets: 16, Payload: []byte{1, 2, 3}},
		"a": {Schema: mring.Schema{"x"}, Buckets: 0},
	}
	for _, c := range []struct{ in, out message }{
		{&setupReq{Index: 3, Workers: 8}, &setupReq{}},
		{&runBlockReq{ID: 1 << 40, Deploy: []byte("blob"), Watch: []string{"Q", "V"}}, &runBlockReq{}},
		{&runBlockResp{Stats: eval.Stats{Lookups: 1, Scans: 2, Emits: 3, IndexOps: 4, KernelFolds: 5}, ComputeNs: -7,
			Sinks: map[string][]byte{"V": {9}, "Q": {8, 7}}}, &runBlockResp{}},
		{&installScatterReq{Name: "R", Schema: schema, Payload: []byte{5}, Broadcast: true, Capture: true}, &installScatterReq{}},
		{&installResp{Cur: []byte{1}, Old: []byte{2, 3}}, &installResp{}},
		{&installRepartReq{Name: "R", SrcSchema: schema, LHSSchema: schema, Payloads: [][]byte{{1}, nil, {2}}, Capture: true}, &installRepartReq{}},
		{&installDeltaReq{Name: "ΔR", Schema: schema, Payload: []byte{4}}, &installDeltaReq{}},
		{&partitionOutReq{Src: "R", Schema: schema, KeyPos: []int{1, 0}}, &partitionOutReq{}},
		{&fragsMsg{Frags: [][]byte{nil, {1, 2}}}, &fragsMsg{}},
		{&fetchReq{Name: "R", Schema: schema}, &fetchReq{}},
		{&fetchResp{Present: true, Payload: []byte{6}}, &fetchResp{}},
		{&snapshotMsg{Frags: frags}, &snapshotMsg{}},
		{&retainReq{Keep: map[string]bool{"b": true, "a": true}}, &retainReq{}},
	} {
		body := marshal(c.in)
		if err := unmarshal(body, c.out); err != nil {
			t.Fatalf("%T: %v", c.in, err)
		}
		if !reflect.DeepEqual(c.in, c.out) {
			t.Fatalf("%T: round trip gave %+v, want %+v", c.in, c.out, c.in)
		}
		if again := marshal(c.out); string(again) != string(body) {
			t.Fatalf("%T: re-encoding differs", c.in)
		}
	}
}

// TestCodecRejectsMalformed pins the decoder's refusals: trailing bytes,
// truncation, counts larger than the body, and out-of-order map keys.
func TestCodecRejectsMalformed(t *testing.T) {
	good := marshal(&snapshotMsg{Frags: map[string]Frag{"a": {}, "b": {}}})
	var e wire.Enc
	e.Int(1 << 20) // a million fragments in a few bytes
	huge := e.B
	var dup wire.Enc
	dup.Int(2)
	for _, name := range []string{"b", "a"} {
		dup.Str(name)
		dup.Strs(nil)
		dup.Int(0)
		dup.Bytes(nil)
	}
	for name, c := range map[string]struct {
		body []byte
		want string
	}{
		"trailing":     {append(append([]byte{}, good...), 0), "trailing"},
		"truncated":    {good[:len(good)-1], "truncated"},
		"count":        {huge, "exceeds"},
		"out of order": {dup.B, "out of order"},
	} {
		var m snapshotMsg
		if err := unmarshal(c.body, &m); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
	if err := unmarshal([]byte{0}, nil); err == nil {
		t.Error("an empty message accepted a byte")
	}
}
