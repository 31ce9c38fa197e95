package units

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestByteConstructors(t *testing.T) {
	cases := []struct {
		got  Bytes
		want int64
	}{
		{B(7), 7},
		{KB(1), 1 << 10},
		{MB(2), 2 << 20},
		{GB(3), 3 << 30},
		{TB(1), 1 << 40},
		{KB(0.5), 512},
	}
	for _, c := range cases {
		if c.got.Int64() != c.want {
			t.Errorf("got %d, want %d", c.got.Int64(), c.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{B(512), "512B"},
		{KB(1), "1.00KiB"},
		{MB(1.5), "1.50MiB"},
		{GB(56), "56.00GiB"},
		{TB(3.2), "3.20TiB"},
		{B(-2048), "-2.00KiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
		err  bool
	}{
		{"512", B(512), false},
		{"512B", B(512), false},
		{"1K", KB(1), false},
		{"1KB", KB(1), false},
		{"1KiB", KB(1), false},
		{"3.84TB", TB(3.84), false},
		{"14 GB", GB(14), false},
		{"768GiB", GB(768), false},
		{"1024MB", GB(1), false},
		{"", 0, true},
		{"abc", 0, true},
		{"12XB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseBytes(%q): expected error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseBytesRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		b := Bytes(raw)
		parsed, err := ParseBytes(b.String())
		if err != nil {
			return false
		}
		// String() rounds to 2 decimals, so allow 1% relative slack.
		diff := math.Abs(float64(parsed - b))
		return diff <= math.Max(1, 0.01*float64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthConstructors(t *testing.T) {
	if got := GiBps(20).GiBpsf(); math.Abs(got-20) > 1e-9 {
		t.Errorf("GiBps(20).GiBpsf() = %v", got)
	}
	if got := float64(Gbps(100)); math.Abs(got-12.5e9) > 1 {
		t.Errorf("Gbps(100) = %v bytes/s, want 12.5e9", got)
	}
	if got := float64(MiBps(2048)); math.Abs(got-float64(GB(2))) > 1 {
		t.Errorf("MiBps(2048) = %v", got)
	}
}

func TestBandwidthTimeFor(t *testing.T) {
	bw := GiBps(2)
	d := bw.TimeFor(GB(4))
	if math.Abs(d.Sec()-2) > 1e-9 {
		t.Errorf("TimeFor = %v, want 2s", d)
	}
	if !Bandwidth(0).TimeFor(GB(1)).IsInf() {
		t.Error("zero bandwidth should yield infinite duration")
	}
	if !Bandwidth(-1).TimeFor(GB(1)).IsInf() {
		t.Error("negative bandwidth should yield infinite duration")
	}
}

func TestBandwidthString(t *testing.T) {
	if got := GiBps(6).String(); got != "6.00GiB/s" {
		t.Errorf("got %q", got)
	}
	if got := MiBps(5).String(); got != "5.00MiB/s" {
		t.Errorf("got %q", got)
	}
}

func TestDurationConversions(t *testing.T) {
	d := Seconds(1.5)
	if d.Std() != 1500*time.Millisecond {
		t.Errorf("Std() = %v", d.Std())
	}
	if Duration(math.Inf(1)).Std() != time.Duration(math.MaxInt64) {
		t.Error("infinite duration should saturate")
	}
	if Duration(math.Inf(-1)).Std() != time.Duration(math.MinInt64) {
		t.Error("negative infinite duration should saturate")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		in   Duration
		want string
	}{
		{Seconds(2.5), "2.500s"},
		{Seconds(0.012), "12.000ms"},
		{Seconds(12e-6), "12.000us"},
		{Seconds(0), "0s"},
		{Duration(math.Inf(1)), "+inf"},
		{Duration(math.Inf(-1)), "-inf"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestRate(t *testing.T) {
	bw := Rate(GB(10), Seconds(5))
	if math.Abs(bw.GiBpsf()-2) > 1e-9 {
		t.Errorf("Rate = %v, want 2 GiB/s", bw)
	}
	if !math.IsInf(float64(Rate(GB(1), 0)), 1) {
		t.Error("zero time should give infinite rate")
	}
}

func TestRateTimeForInverseProperty(t *testing.T) {
	f := func(nRaw uint32, dMilli uint16) bool {
		n := Bytes(nRaw) + 1
		d := Seconds(float64(dMilli)/1e3 + 1e-3)
		bw := Rate(n, d)
		back := bw.TimeFor(n)
		return math.Abs(back.Sec()-d.Sec()) < 1e-9*math.Max(1, d.Sec())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseBandwidth(t *testing.T) {
	cases := []struct {
		in   string
		want Bandwidth
		err  bool
	}{
		{"20GiB/s", GiBps(20), false},
		{"6GB/s", GiBps(6), false},
		{"36GiB", GiBps(36), false},
		{"100Gbps", Gbps(100), false},
		{"10mbps", Bandwidth(10e6 / 8), false},
		{"512KB/s", Bandwidth(512 << 10), false},
		{"", 0, true},
		{"fast", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBandwidth(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseBandwidth(%q) err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && math.Abs(float64(got-c.want)) > 1 {
			t.Errorf("ParseBandwidth(%q) = %v, want %v", c.in, float64(got), float64(c.want))
		}
	}
}

// TestParseBytesRange: sizes inside the int64 range of bytes parse exactly
// (fractions truncated toward zero); sizes outside it are errors, not a
// wrapped count.
func TestParseBytesRange(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"-9223372036854775808", math.MinInt64},
		{"9223372036854774784", 9223372036854774784}, // the largest float64 below 2^63
		{"8388607.999999999TiB", 9223372036854774784},
		{"-8589934592GiB", math.MinInt64},
		{"-0.75", 0},
		{"1.5K", 1536},
	} {
		if got, err := ParseBytes(c.in); err != nil || got.Int64() != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got.Int64(), err, c.want)
		}
	}
	for _, in := range []string{
		"9223372036854775807", // rounds to 2^63 as a float64
		"9223372036854775808",
		"99999999999999999999T",
		"8589934592GiB",
		"-9223372036854777856", // the float64 just below -2^63
		"-99999999999999999999T",
	} {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d B, want an error", in, got.Int64())
		}
	}
}

// FuzzParseBytes: ParseBytes never panics, and a size it accepts is the
// number it parsed truncated toward zero, with its sign and magnitude.
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{"384GB", "3.84TB", "56GiB", "512", "14 GB", "-40GiB", "0.5K", "", "1e3", "..", "+-1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseBytes(s)
		if err != nil {
			return
		}
		v, err := parseBytes(s)
		if err != nil {
			t.Fatalf("ParseBytes(%q) accepted what parseBytes rejects: %v", s, err)
		}
		if float64(got) != math.Trunc(v) {
			t.Fatalf("ParseBytes(%q) = %d B, but the size is %v B", s, got.Int64(), v)
		}
	})
}

// FuzzParseBandwidth: ParseBandwidth never panics, and a finite rate of at
// least 1 B/s written as the shortest decimal of its GiB/s (the machine
// spec's format) parses back to the same rate.
func FuzzParseBandwidth(f *testing.F) {
	for _, s := range []string{"20GiB/s", "6GB/s", "100Gbps", "36GiB", "800Mbps", "7 GiB/s", "1e-320Gbps", "NaNGbps", "1e308Gbps", "-5Mbps", "0.5", "/s"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		bw, err := ParseBandwidth(s)
		r := float64(bw)
		if err != nil || math.IsNaN(r) || math.IsInf(r, 0) || math.Abs(r) < 1 {
			return
		}
		text := strconv.FormatFloat(r/float64(GiB), 'f', -1, 64) + "GiB/s"
		back, err := ParseBandwidth(text)
		if err != nil || back != bw {
			t.Fatalf("ParseBandwidth(%q) = %v B/s, written %q, read back %v B/s, %v", s, r, text, float64(back), err)
		}
	})
}
