package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/mring"
	inet "repro/internal/net"
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
	r := mring.NewRelation(schema)
	r.Add(tup(1, 2), 3)
	p, err := decodeRows(inet.EncodeRelationPlain(r))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ in, out message }{
		{&setupReq{Index: 3, Workers: 8}, &setupReq{}},
		{&stageReq{
			installs: []install{
				{kind: installReplace, name: "ΔR", schema: schema, from: []rows{p}},
				{kind: installScatter, name: "S", schema: schema, from: []rows{nil}, capture: true},
				{kind: installRepart, name: "R", schema: schema, from: []rows{p, nil, p}, capture: true},
			},
			block: &block{id: 1 << 40}, deploy: []byte("blob"), watch: []string{"Q", "V"},
			outputs: []output{{src: "R", schema: schema}, {src: "S", schema: schema, split: true, keyPos: []int{1, 0}}},
		}, &stageReq{}},
		{&stageReq{installs: []install{{kind: installReplace, name: "ΔR", schema: schema, from: []rows{p}}}}, &stageReq{}},
		{&stageReq{outputs: []output{{src: "R", schema: schema}}}, &stageReq{}},
		{&stageResp{stats: eval.Stats{Lookups: 1, Scans: 2, Emits: 3, IndexOps: 4}, compute: -7,
			sinks:    map[string]rows{"V": p, "Q": nil},
			replaced: [][2]rows{{nil, nil}, {p, nil}},
			outs:     [][]rows{{p}, {nil, p}}}, &stageResp{}},
		{&stageResp{}, &stageResp{}},
		{&snapshotMsg{Frags: frags}, &snapshotMsg{}},
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
// truncation, counts larger than the body, and out-of-order map keys;
// and, in stage requests and responses, an unknown install kind, a
// payload whose arity differs from its install's schema, and a payload
// that does not decode.
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
	schema := mring.Schema{"a", "b"}
	r := mring.NewRelation(schema)
	r.Add(tup(1, 2), 3)
	p, err := decodeRows(inet.EncodeRelationPlain(r))
	if err != nil {
		t.Fatal(err)
	}
	stage := marshal(&stageReq{installs: []install{{kind: installRepart, name: "R", schema: schema, from: []rows{p, nil}}},
		outputs: []output{{src: "R", schema: schema, split: true, keyPos: []int{1}}}})
	kind := marshal(&stageReq{installs: []install{{kind: installRepart + 1, name: "R", schema: schema, from: []rows{p}}}})
	arity := marshal(&stageReq{installs: []install{{kind: installScatter, name: "R", schema: schema[:1], from: []rows{p}}}})
	resp := marshal(&stageResp{outs: [][]rows{{p}}})
	var junk wire.Enc
	junk.Varints(make([]int64, 4)) // stats
	junk.Float(0)                  // compute
	junk.Int(0)                    // no sinks
	junk.Int(0)                    // no replacements
	junk.Int(1)                    // one output of one piece
	junk.Int(1)
	junk.Bytes([]byte{9, 9, 9})
	snapshot := func() message { return &snapshotMsg{} }
	request := func() message { return &stageReq{} }
	response := func() message { return &stageResp{} }
	for name, c := range map[string]struct {
		body []byte
		msg  func() message
		want string
	}{
		"trailing":              {append(append([]byte{}, good...), 0), snapshot, "trailing"},
		"truncated":             {good[:len(good)-1], snapshot, "truncated"},
		"count":                 {huge, snapshot, "exceeds"},
		"out of order":          {dup.B, snapshot, "out of order"},
		"stage trailing":        {append(append([]byte{}, stage...), 0), request, "trailing"},
		"stage truncated":       {stage[:len(stage)-1], request, "exceeds"},
		"stage count":           {huge, request, "exceeds"},
		"install kind":          {kind, request, "unknown install kind"},
		"payload arity":         {arity, request, "arity"},
		"response truncated":    {resp[:len(resp)-1], response, "exceeds"},
		"response trailing":     {append(append([]byte{}, resp...), 0), response, "trailing"},
		"response payload junk": {junk.B, response, "payload"},
	} {
		if err := unmarshal(c.body, c.msg()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
	if err := unmarshal([]byte{0}, nil); err == nil {
		t.Error("an empty message accepted a byte")
	}
}
