package ooc

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// codecCases is the shared table of payload shapes: the smooth kernels
// the codec is built for, the incompressible ones that must fall back
// to raw, and the IEEE edge patterns the bit-exact contract covers.
func codecCases() map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 512)
	for i := range random {
		random[i] = math.Float64frombits(rng.Uint64())
	}
	constant := make([]float64, 1024)
	for i := range constant {
		constant[i] = 300.15
	}
	// Dyadic step: consecutive values XOR to a handful of mantissa
	// bits, the shape Gorilla is built for. A non-dyadic step (0.001)
	// smears the XOR across the mantissa and barely compresses — it
	// stays in the table as a round-trip case only.
	ramp := make([]float64, 1024)
	for i := range ramp {
		ramp[i] = 20.0 + float64(i)*0.25
	}
	rampOdd := make([]float64, 1024)
	for i := range rampOdd {
		rampOdd[i] = 20.0 + float64(i)*0.001
	}
	// A smooth field quantized to 1/4 steps — sensor-grid data.
	quantSine := make([]float64, 1024)
	for i := range quantSine {
		quantSine[i] = math.Round((20+math.Sin(float64(i)/100)*5)*4) / 4
	}
	return map[string][]float64{
		"empty":       {},
		"single":      {42.5},
		"single-nan":  {math.NaN()},
		"two-equal":   {1e300, 1e300},
		"constant":    constant,
		"ramp":        ramp,
		"ramp-odd":    rampOdd,
		"quant-sine":  quantSine,
		"random-bits": random,
		"ieee-edges": {
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.NaN(), math.Float64frombits(0x7FF0000000000001), // signaling NaN
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.MaxFloat64, -math.MaxFloat64, 1, -1,
		},
		"zeros-then-step": append(make([]float64, 500), 1, 1, 1, 2),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for name, data := range codecCases() {
		t.Run(name, func(t *testing.T) {
			frame := AppendFrame(nil, data)
			if len(frame)%8 != 0 {
				t.Fatalf("frame length %d not word-aligned", len(frame))
			}
			if max := frameSizeBytes(len(data) * ElemSize); len(frame) > max {
				t.Fatalf("frame is %d bytes, over the raw-fallback bound %d", len(frame), max)
			}
			elems, size, err := frameHeader(frame)
			if err != nil {
				t.Fatalf("frameHeader: %v", err)
			}
			if elems != len(data) || size != len(frame) {
				t.Fatalf("frameHeader = (%d, %d), want (%d, %d)", elems, size, len(data), len(frame))
			}
			got := make([]float64, len(data))
			n, err := DecodeFrame(frame, got)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if n != len(frame) {
				t.Fatalf("DecodeFrame consumed %d bytes, want %d", n, len(frame))
			}
			for i := range data {
				if math.Float64bits(got[i]) != math.Float64bits(data[i]) {
					t.Fatalf("bit drift at %d: %016x != %016x",
						i, math.Float64bits(got[i]), math.Float64bits(data[i]))
				}
			}
		})
	}
}

// TestFrameCompressionWins pins the headline numbers: the smooth
// shapes the paper's kernels produce must shrink well past 2x (the bar
// the server's wire gate holds tile traffic to), and incompressible
// data must cost no more than raw plus the fixed header.
func TestFrameCompressionWins(t *testing.T) {
	cases := codecCases()
	for _, name := range []string{"constant", "ramp", "quant-sine"} {
		data := cases[name]
		frame := AppendFrame(nil, data)
		if raw := len(data) * ElemSize; len(frame)*2 > raw {
			t.Errorf("%s: frame %d bytes vs raw %d — less than the 2x target", name, len(frame), raw)
		}
	}
	random := cases["random-bits"]
	frame := AppendFrame(nil, random)
	if want := frameSizeBytes(len(random) * ElemSize); len(frame) != want {
		t.Errorf("random data should store raw: frame %d bytes, want %d", len(frame), want)
	}
}

// TestFrameAppendsInPlace checks AppendFrame really appends: framing
// into a prefixed buffer leaves the prefix alone, and the resulting
// sub-slice decodes.
func TestFrameAppendsInPlace(t *testing.T) {
	prefix := []byte("prefix")
	data := []float64{1, 2, 3, 4}
	out := AppendFrame(append([]byte(nil), prefix...), data)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("AppendFrame clobbered the destination prefix")
	}
	got := make([]float64, len(data))
	if _, err := DecodeFrame(out[len(prefix):], got); err != nil {
		t.Fatalf("decode appended frame: %v", err)
	}
}

// TestFrameQuickIdentity drives decode∘encode over generated payloads:
// the codec must be the identity on bits for arbitrary float64 slices,
// including the NaN payloads quick generates.
func TestFrameQuickIdentity(t *testing.T) {
	id := func(data []float64) bool {
		frame := AppendFrame(nil, data)
		got := make([]float64, len(data))
		if _, err := DecodeFrame(frame, got); err != nil {
			return false
		}
		for i := range data {
			if math.Float64bits(got[i]) != math.Float64bits(data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(id, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameCorruptRejected walks the rejection surface: every way a
// frame can be damaged in storage or transit must surface as an error,
// never as silently wrong data.
func TestFrameCorruptRejected(t *testing.T) {
	data := codecCases()["ramp"]
	frame := AppendFrame(nil, data)
	dst := make([]float64, len(data))

	corrupt := func(name string, mutate func(f []byte) []byte) {
		t.Helper()
		f := mutate(append([]byte(nil), frame...))
		if _, err := DecodeFrame(f, dst); err == nil {
			t.Errorf("%s: corrupt frame decoded without error", name)
		}
	}
	corrupt("empty", func(f []byte) []byte { return nil })
	corrupt("truncated-header", func(f []byte) []byte { return f[:8] })
	corrupt("truncated-payload", func(f []byte) []byte { return f[:len(f)-8] })
	corrupt("codec-id-zero", func(f []byte) []byte { f[7] = 0; return f })
	corrupt("codec-id-unknown", func(f []byte) []byte { f[7] = 9; return f })
	corrupt("reserved-bits-set", func(f []byte) []byte { f[5] = 1; return f })
	corrupt("crc-flip", func(f []byte) []byte { f[8] ^= 1; return f })
	corrupt("payload-flip", func(f []byte) []byte { f[20] ^= 0x40; return f })
	corrupt("enc-len-zero", func(f []byte) []byte { f[12], f[13], f[14], f[15] = 0, 0, 0, 0; return f })

	// Wrong destination size is the caller's bug surface, same contract.
	if _, err := DecodeFrame(frame, make([]float64, len(data)-1)); err == nil {
		t.Error("DecodeFrame accepted a short destination")
	}

	// A gorilla frame claiming no compression win is not one AppendFrame
	// built; frameHeader must refuse it rather than trust encodedLen.
	single := AppendFrame(nil, []float64{1, 2})
	if single[7] == CodecGorilla {
		big := append([]byte(nil), single...)
		big[12] = 16 // encodedLen = 2*8: no longer beats raw
		if _, _, err := frameHeader(big); err == nil {
			t.Error("frameHeader accepted a gorilla frame with encodedLen >= raw")
		}
	}
}

// TestFrameZeroHeaderInvalid pins that an all-zero header is not a
// frame: zeroed bytes can never decode as a payload.
func TestFrameZeroHeaderInvalid(t *testing.T) {
	if _, _, err := frameHeader(make([]byte, 64)); err == nil {
		t.Fatal("all-zero bytes parsed as a frame")
	}
}

// FuzzTileCodec drives the frame decoder with arbitrary bytes (the
// torn-storage situation) and round-trips fuzz-derived payloads.
// Properties: decoding never panics; whatever AppendFrame built
// round-trips bit for bit; a frame the decoder accepts after mutation
// still yields exactly the declared element count.
//
// Run with: go test ./internal/ooc/ -fuzz FuzzTileCodec
func FuzzTileCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("definitely not a codec frame, just bytes"))
	f.Add(AppendFrame(nil, []float64{1, 2, 3}))
	f.Add(AppendFrame(nil, []float64{math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64}))
	f.Add(AppendFrame(nil, make([]float64, 64)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// 1. Arbitrary bytes: parsing and decoding must be total.
		if elems, size, err := frameHeader(raw); err == nil {
			if size < frameHeaderBytes || size > len(raw) || elems < 0 {
				t.Fatalf("frameHeader accepted elems=%d size=%d for %d bytes", elems, size, len(raw))
			}
			dst := make([]float64, elems)
			if n, err := DecodeFrame(raw, dst); err == nil && n != size {
				t.Fatalf("DecodeFrame size %d != frameHeader size %d", n, size)
			}
		} else {
			// Still must not panic with a plausible destination.
			_, _ = DecodeFrame(raw, make([]float64, len(raw)/ElemSize+1))
		}

		// 2. Reinterpret the input as float64s and round-trip them.
		data := make([]float64, len(raw)/ElemSize)
		for i := range data {
			var b [8]byte
			copy(b[:], raw[i*ElemSize:])
			data[i] = math.Float64frombits(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
				uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
		}
		frame := AppendFrame(nil, data)
		got := make([]float64, len(data))
		if _, err := DecodeFrame(frame, got); err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		for i := range data {
			if math.Float64bits(got[i]) != math.Float64bits(data[i]) {
				t.Fatalf("round trip bit drift at %d", i)
			}
		}
	})
}
