package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"
	"strconv"

	"realisticfd/internal/model"
)

// Digest returns a hex SHA-256 fingerprint of the full run: the
// schedule with times, received and sent messages (payloads included),
// failure-detector samples, protocol events, the final failure pattern
// and the undelivered buffer. Two runs are byte-identical iff their
// digests match, which is how the replay regression tests and the
// parallel-sweep determinism checks state "same Config + same Seed ⇒
// same run" — the property the Lemma 4.1 indistinguishability argument
// (and every deterministic replay) rests on.
func (tr *Trace) Digest() string {
	h := sha256.New()
	tr.encode(h)
	return hex.EncodeToString(h.Sum(nil))
}

// encode writes a canonical rendering of the trace to w. The rendering
// is pinned by the golden-trace digests, so its bytes must never
// change. It is also the streaming sweeps' per-run hot path (one
// digest per run, about 860 KB of text on a busy n=64 run), so:
//
//   - lines are assembled with append-style formatting into the scratch
//     buffer the trace retains across runs, and handed to w in blocks
//     of at least flushBlock bytes rather than line by line, so the
//     hash sees a few dozen large writes per run instead of one per
//     line; the buffer never holds more than a block plus one line;
//   - every integer below 10^8 goes through appendDec's four-digit
//     table and a single word store instead of strconv's digit loop
//     and copy;
//   - payloads go through appendValue, which replicates %v for every
//     shape without fmt's reflection round-trip.
//
// The trace is rendered after Execute, not hashed as events are
// appended: a digest taken right after its run costs the same as one
// taken on a trace already walked (2.24 against 2.21 ms on busy n=64),
// so the rendering pays for its arithmetic, not for cache misses.
func (tr *Trace) encode(w io.Writer) {
	b := tr.scratch[:0]
	b = append(b, "n="...)
	b = appendDec(b, int64(tr.N))
	b = append(b, " stopped="...)
	b = appendDec(b, int64(tr.Stopped))
	b = fmt.Appendf(b, " pattern=%s\n", tr.Pattern)
	for i := range tr.Events {
		if len(b) >= flushBlock {
			w.Write(b)
			b = b[:0]
		}
		ev := &tr.Events[i]
		b = append(b, 'e')
		b = appendDec(b, int64(ev.Index))
		b = append(b, " p="...)
		b = appendDec(b, int64(ev.P))
		b = append(b, " t="...)
		b = appendDec(b, int64(ev.T))
		b = append(b, " fd="...)
		b = ev.FD.AppendText(b)
		b = append(b, " prev="...)
		b = appendDec(b, int64(ev.PrevSameProc))
		if m := ev.Msg; m != nil {
			b = append(b, " rcv=("...)
			b = appendDec(b, m.ID)
			b = append(b, ' ')
			b = appendDec(b, int64(m.From))
			b = append(b, '>')
			b = appendDec(b, int64(m.To))
			b = append(b, " @"...)
			b = appendDec(b, int64(m.SentAt))
			b = append(b, " by"...)
			b = appendDec(b, int64(m.SentBy))
			b = append(b, ' ')
			b = appendValue(b, m.Payload)
			b = append(b, ')')
		}
		for _, m := range ev.Sends {
			b = append(b, " snd=("...)
			b = appendDec(b, m.ID)
			b = append(b, " >"...)
			b = appendDec(b, int64(m.To))
			b = append(b, ' ')
			b = appendValue(b, m.Payload)
			b = append(b, ')')
		}
		for _, pe := range ev.Events {
			b = append(b, " ev=("...)
			b = appendDec(b, int64(pe.Kind))
			b = append(b, ' ')
			b = appendDec(b, int64(pe.Instance))
			b = append(b, ' ')
			b = appendValue(b, pe.Value)
			b = append(b, ')')
		}
		b = append(b, '\n')
	}
	for _, m := range tr.Undelivered {
		if len(b) >= flushBlock {
			w.Write(b)
			b = b[:0]
		}
		b = append(b, "u=("...)
		b = appendDec(b, m.ID)
		b = append(b, ' ')
		b = appendDec(b, int64(m.From))
		b = append(b, '>')
		b = appendDec(b, int64(m.To))
		b = append(b, " @"...)
		b = appendDec(b, int64(m.SentAt))
		b = append(b, ' ')
		b = appendValue(b, m.Payload)
		b = append(b, ")\n"...)
	}
	w.Write(b)
	tr.scratch = b
}

// flushBlock is the size at which encode hands its buffer to the
// writer. sha256 digests whole 64-byte blocks straight from large
// writes, so 32 KiB amortises the per-write cost while keeping the
// retained buffer small.
const flushBlock = 32 << 10

// decTable holds the four ASCII digits of every value in [0, 10000),
// zero-padded, packed little-endian: the first digit is the low byte.
var decTable = func() (t [10000]uint32) {
	for v := range t {
		t[v] = uint32('0'+v/1000) | uint32('0'+v/100%10)<<8 |
			uint32('0'+v/10%10)<<16 | uint32('0'+v%10)<<24
	}
	return
}()

// appendDec appends the decimal rendering of v, exactly as
// strconv.AppendInt(b, v, 10) does. A value in [0, 10^8) — every ID,
// time and index a simulated run produces — is two table lookups and
// one 8-byte store: the eight zero-padded digits are packed into a
// word, shifted past their leading zeros, and stored whole, with b's
// length then cut to the digits that count. Negative and larger values
// fall back to strconv.
func appendDec(b []byte, v int64) []byte {
	if uint64(v) >= 1e8 {
		return strconv.AppendInt(b, v, 10)
	}
	x := uint64(decTable[v/1e4]) | uint64(decTable[v%1e4])<<32
	// Each leading '0' is a zero byte of x^"00000000"; keep one digit
	// for v = 0.
	zeros := min(bits.TrailingZeros64(x^0x3030303030303030)/8, 7)
	n := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(b[n:], x>>(8*zeros))
	return b[:n+8-zeros]
}

// appendValue appends fmt's %v rendering of v. The fast paths cover
// the payload shapes protocols actually send (strings, integers,
// Stringers) without boxing; everything else falls back to fmt, whose
// default single-operand formatting is %v — so the bytes are identical
// to the fmt.Fprintf they replace in every case. Dispatch order
// mirrors fmt.handleMethods: Formatter, then error, then Stringer.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "<nil>"...)
	case string:
		return append(b, x...)
	case int:
		return appendDec(b, int64(x))
	case int64:
		return appendDec(b, x)
	case model.Time:
		return appendDec(b, int64(x))
	case model.ProcessID:
		return append(b, x.String()...)
	case bool:
		return strconv.AppendBool(b, x)
	case fmt.Formatter:
		return fmt.Appendf(b, "%v", v)
	case error:
		return append(b, x.Error()...)
	case fmt.Stringer:
		return append(b, x.String()...)
	default:
		return fmt.Append(b, v)
	}
}
