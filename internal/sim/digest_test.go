package sim

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"realisticfd/internal/fd"
	"realisticfd/internal/model"
)

// encodeReference is the original fmt-based trace rendering the
// append-based encoder replaced. The digest bytes are pinned by the
// golden-trace suite; this reference keeps the equivalence checkable
// on arbitrary traces, payload shapes included.
func encodeReference(tr *Trace, w io.Writer) {
	fmt.Fprintf(w, "n=%d stopped=%d pattern=%s\n", tr.N, tr.Stopped, tr.Pattern)
	for i := range tr.Events {
		ev := &tr.Events[i]
		fmt.Fprintf(w, "e%d p=%d t=%d fd=%s prev=%d", ev.Index, ev.P, ev.T, ev.FD, ev.PrevSameProc)
		if ev.Msg != nil {
			fmt.Fprintf(w, " rcv=(%d %d>%d @%d by%d %v)",
				ev.Msg.ID, ev.Msg.From, ev.Msg.To, ev.Msg.SentAt, ev.Msg.SentBy, ev.Msg.Payload)
		}
		for _, m := range ev.Sends {
			fmt.Fprintf(w, " snd=(%d >%d %v)", m.ID, m.To, m.Payload)
		}
		for _, pe := range ev.Events {
			fmt.Fprintf(w, " ev=(%d %d %v)", pe.Kind, pe.Instance, pe.Value)
		}
		fmt.Fprintln(w)
	}
	for _, m := range tr.Undelivered {
		fmt.Fprintf(w, "u=(%d %d>%d @%d %v)\n", m.ID, m.From, m.To, m.SentAt, m.Payload)
	}
}

// payloadAutomaton broadcasts a different payload shape per process:
// every branch of appendValue's type switch must render exactly as
// fmt's %v did.
type payloadAutomaton struct{}

type payloadProc struct {
	self model.ProcessID
	n    int
	sent bool
}

type structPayload struct {
	Round int
	Est   string
}

type stringerPayload struct{ tag string }

func (sp stringerPayload) String() string { return "tagged:" + sp.tag }

func (payloadAutomaton) Spawn(self model.ProcessID, n int) Process {
	return &payloadProc{self: self, n: n}
}

func (p *payloadProc) Step(in *Message, _ model.ProcessSet, t model.Time) Actions {
	var acts Actions
	if !p.sent {
		p.sent = true
		var payload any
		switch int(p.self) % 8 {
		case 0:
			payload = "plain string"
		case 1:
			payload = 42
		case 2:
			payload = int64(-7)
		case 3:
			payload = model.Time(900)
		case 4:
			payload = p.self // model.ProcessID, a Stringer
		case 5:
			payload = true
		case 6:
			payload = structPayload{Round: 3, Est: "v1"}
		default:
			payload = stringerPayload{tag: "x"}
		}
		acts.Sends = Broadcast(p.n, payload)
		acts.Events = []ProtocolEvent{{Kind: KindViewChange, Instance: int(t), Value: payload}}
	}
	return acts
}

// TestEncodeMatchesReference holds the append-based digest encoder to
// the fmt-based rendering byte for byte, on traces that exercise every
// payload fast path plus the fmt fallback, under loss (undelivered
// buffer) and crashes.
func TestEncodeMatchesReference(t *testing.T) {
	t.Parallel()
	for _, cfg := range []Config{
		{
			N: 8, Automaton: payloadAutomaton{}, Oracle: fd.Perfect{Delay: 2},
			Pattern: model.MustPattern(8).MustCrash(3, 20),
			Horizon: 300, Seed: 5,
			Policy: &FaultyPolicy{Inner: &RandomFairPolicy{}, Faults: LinkFaults{DropPct: 30}},
		},
		{
			N: 6, Automaton: noisyAutomaton{}, Oracle: fd.Perfect{},
			Horizon: 400, Seed: 9, Policy: &RandomFairPolicy{},
		},
	} {
		tr, err := Execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertEncodeMatches(t, tr)
	}
	for _, tr := range handBuiltTraces() {
		assertEncodeMatches(t, tr)
	}
}

// assertEncodeMatches fails t unless the encoder renders tr exactly as
// encodeReference does.
func assertEncodeMatches(t *testing.T, tr *Trace) {
	t.Helper()
	var want, got bytes.Buffer
	encodeReference(tr, &want)
	tr.encode(&got)
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		wa, ga := want.Bytes(), got.Bytes()
		i := 0
		for i < len(wa) && i < len(ga) && wa[i] == ga[i] {
			i++
		}
		lo := i - 40
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("encoder diverged from fmt reference at byte %d:\nref: ...%q\nnew: ...%q",
			i, wa[lo:min(i+40, len(wa))], ga[lo:min(i+40, len(ga))])
	}
	longest := 0
	for _, line := range bytes.SplitAfter(want.Bytes(), []byte("\n")) {
		longest = max(longest, len(line))
	}
	if len(tr.scratch) > flushBlock+longest {
		t.Fatalf("encoder retained %d bytes, more than a flush block plus its longest line (%d)",
			len(tr.scratch), longest)
	}
}

// decBoundaries are the values around every digit-count step of
// appendDec, its table split and its strconv fallback.
func decBoundaries() []int64 {
	vs := []int64{0, -1, math.MinInt64, math.MaxInt64}
	for p := int64(10); p <= 1e18; p *= 10 {
		vs = append(vs, p-1, p, p+1)
	}
	return vs
}

// handBuiltTraces returns traces the engine never produces: IDs, times
// and sender indices on appendDec's boundaries, an event line and an
// undelivered buffer each longer than a flush block, and an empty
// trace.
func handBuiltTraces() []*Trace {
	vs := decBoundaries()
	pat := model.MustPattern(64).MustCrash(7, 300)
	var events []EventRecord
	var undelivered []*Message
	for i, v := range vs {
		m := &Message{
			ID: v, From: 1, To: 64, SentAt: model.Time(v), SentBy: int(v),
			Payload: vs[len(vs)-1-i],
		}
		events = append(events, EventRecord{
			Index: int(v), P: model.ProcessID(1 + i%64), T: model.Time(v),
			FD: model.NewProcessSet(1, 64), PrevSameProc: int(v), Msg: m,
			Sends:  []*Message{m},
			Events: []ProtocolEvent{{Kind: EventKind(i), Instance: int(v), Value: model.Time(v)}},
		})
		undelivered = append(undelivered, m)
	}
	var long []*Message
	for len(long)*len(" snd=(99999999 >64 99999999)") <= 2*flushBlock {
		long = append(long, &Message{ID: 99999999, To: 64, Payload: 99999999})
	}
	events = append(events, EventRecord{Index: 1, P: 64, T: 1e8, Sends: long})
	for i := 0; len(undelivered)*len("u=(99999999 1>64 @9999 ok)\n") <= 2*flushBlock; i++ {
		undelivered = append(undelivered, &Message{
			ID: int64(99999999 - i), From: 1, To: 64, SentAt: 9999, Payload: "ok",
		})
	}
	return []*Trace{
		{N: 64, Stopped: StopHorizon, Pattern: pat, Events: events, Undelivered: undelivered},
		{N: 4, Pattern: model.MustPattern(4)},
	}
}

// TestAppendDecMatchesStrconv holds the table-driven decimal renderer
// to strconv.AppendInt on every boundary and on random int64s.
func TestAppendDecMatchesStrconv(t *testing.T) {
	t.Parallel()
	for _, v := range decBoundaries() {
		if got, want := string(appendDec([]byte("x"), v)), "x"+strconv.FormatInt(v, 10); got != want {
			t.Errorf("appendDec(%d) = %q, want %q", v, got, want)
		}
	}
	same := func(v int64, small uint32) bool {
		for _, x := range []int64{v, int64(small % 1e8)} {
			if string(appendDec(nil, x)) != strconv.FormatInt(x, 10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
