// Package units provides the physical quantity types shared by the Moment
// simulator: byte sizes, bandwidths, and durations, with parsing and
// formatting helpers. Bandwidths are stored as bytes per second in float64;
// sizes as int64 bytes.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Common binary byte sizes.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)

// Bytes is a data size in bytes.
type Bytes int64

// B constructs a Bytes value from a count of bytes.
func B(n int64) Bytes { return Bytes(n) }

// KB, MB, GB, TB construct Bytes from binary multiples (KiB/MiB/GiB/TiB).
func KB(n float64) Bytes { return Bytes(n * float64(KiB)) }
func MB(n float64) Bytes { return Bytes(n * float64(MiB)) }
func GB(n float64) Bytes { return Bytes(n * float64(GiB)) }
func TB(n float64) Bytes { return Bytes(n * float64(TiB)) }

// Int64 returns the raw byte count.
func (b Bytes) Int64() int64 { return int64(b) }

// GiBf returns the size in GiB as a float.
func (b Bytes) GiBf() float64 { return float64(b) / float64(GiB) }

// String renders the size with a binary-unit suffix.
func (b Bytes) String() string {
	abs := int64(b)
	neg := ""
	if abs < 0 {
		neg = "-"
		abs = -abs
	}
	switch {
	case abs >= TiB:
		return fmt.Sprintf("%s%.2fTiB", neg, float64(abs)/float64(TiB))
	case abs >= GiB:
		return fmt.Sprintf("%s%.2fGiB", neg, float64(abs)/float64(GiB))
	case abs >= MiB:
		return fmt.Sprintf("%s%.2fMiB", neg, float64(abs)/float64(MiB))
	case abs >= KiB:
		return fmt.Sprintf("%s%.2fKiB", neg, float64(abs)/float64(KiB))
	}
	return fmt.Sprintf("%s%dB", neg, abs)
}

// ParseBytes parses strings like "384GB", "3.84TB", "56GiB", "512", "14 GB".
// Decimal and binary suffixes are both treated as binary multiples, matching
// the paper's loose usage of GB/GiB. Fractions of a byte are truncated
// toward zero; a size outside the int64 range of bytes is an error.
func ParseBytes(s string) (Bytes, error) {
	v, err := parseBytes(s)
	if err != nil {
		return 0, err
	}
	// The conversion below is only defined inside the int64 range: beyond
	// it Go leaves the result to the platform, which wraps 2^63 B to -2^63.
	if !(v >= math.MinInt64 && v < -math.MinInt64) {
		return 0, fmt.Errorf("units: byte size %q is outside the int64 range", s)
	}
	return Bytes(v), nil
}

// parseBytes is ParseBytes before the size is truncated to whole bytes.
func parseBytes(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("units: empty byte size")
	}
	i := 0
	for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == '.' || s[i] == '-' || s[i] == '+') {
		i++
	}
	numPart, unitPart := s[:i], strings.TrimSpace(s[i:])
	v, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad byte size %q: %w", s, err)
	}
	unit := strings.ToUpper(unitPart)
	unit = strings.TrimSuffix(unit, "IB") // KiB -> K
	unit = strings.TrimSuffix(unit, "B")  // KB -> K, B -> ""
	mult := float64(1)
	switch unit {
	case "":
	case "K":
		mult = float64(KiB)
	case "M":
		mult = float64(MiB)
	case "G":
		mult = float64(GiB)
	case "T":
		mult = float64(TiB)
	default:
		return 0, fmt.Errorf("units: bad byte unit %q", unitPart)
	}
	return v * mult, nil
}

// Bandwidth is a transfer rate in bytes per second.
type Bandwidth float64

// GiBps constructs a Bandwidth from GiB per second.
func GiBps(v float64) Bandwidth { return Bandwidth(v * float64(GiB)) }

// MiBps constructs a Bandwidth from MiB per second.
func MiBps(v float64) Bandwidth { return Bandwidth(v * float64(MiB)) }

// Gbps constructs a Bandwidth from gigabits per second (decimal, as used for
// network links like "100Gbps").
func Gbps(v float64) Bandwidth { return Bandwidth(v * 1e9 / 8) }

// GiBpsf returns the rate in GiB/s.
func (bw Bandwidth) GiBpsf() float64 { return float64(bw) / float64(GiB) }

// IsZero reports whether the bandwidth is zero (or negligibly small).
func (bw Bandwidth) IsZero() bool { return math.Abs(float64(bw)) < 1e-9 }

// String renders the bandwidth in GiB/s (or MiB/s when small).
func (bw Bandwidth) String() string {
	g := float64(bw) / float64(GiB)
	if math.Abs(g) >= 0.1 {
		return fmt.Sprintf("%.2fGiB/s", g)
	}
	return fmt.Sprintf("%.2fMiB/s", float64(bw)/float64(MiB))
}

// TimeFor returns the duration needed to move n bytes at this rate.
// A zero or negative bandwidth yields an infinite duration.
func (bw Bandwidth) TimeFor(n Bytes) Duration {
	if bw <= 0 {
		return Duration(math.Inf(1))
	}
	return Duration(float64(n) / float64(bw))
}

// Duration is simulated time in seconds. The simulator uses float seconds
// rather than time.Duration to avoid overflow and precision cliffs when
// bisection probes very long horizons.
type Duration float64

// Seconds constructs a Duration from seconds.
func Seconds(v float64) Duration { return Duration(v) }

// Sec returns the duration in seconds.
func (d Duration) Sec() float64 { return float64(d) }

// Std converts to a time.Duration (saturating on overflow/infinity).
func (d Duration) Std() time.Duration {
	s := float64(d) * float64(time.Second)
	if math.IsInf(s, 1) || s > float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	if math.IsInf(s, -1) || s < float64(math.MinInt64) {
		return time.Duration(math.MinInt64)
	}
	return time.Duration(s)
}

// IsInf reports whether the duration is infinite (unreachable event).
func (d Duration) IsInf() bool { return math.IsInf(float64(d), 0) }

// String renders the duration with adaptive precision.
func (d Duration) String() string {
	s := float64(d)
	switch {
	case math.IsInf(s, 1):
		return "+inf"
	case math.IsInf(s, -1):
		return "-inf"
	case math.Abs(s) >= 1:
		return fmt.Sprintf("%.3fs", s)
	case math.Abs(s) >= 1e-3:
		return fmt.Sprintf("%.3fms", s*1e3)
	case s == 0:
		return "0s"
	default:
		return fmt.Sprintf("%.3fus", s*1e6)
	}
}

// Rate returns the bandwidth implied by moving n bytes over d.
func Rate(n Bytes, d Duration) Bandwidth {
	if d <= 0 {
		return Bandwidth(math.Inf(1))
	}
	return Bandwidth(float64(n) / float64(d))
}

// ParseBandwidth parses rates like "20GiB/s", "6GB/s", "100Gbps", "36GiB".
// A bare byte-size is interpreted as that size per second; "Gbps"/"Mbps"
// are decimal bits per second. Rates keep fractions of a byte per second,
// so a rate formatted as the shortest decimal of its GiB/s parses back to
// the same value.
func ParseBandwidth(s string) (Bandwidth, error) {
	t := strings.TrimSpace(s)
	lower := strings.ToLower(t)
	if strings.HasSuffix(lower, "gbps") {
		v, err := strconv.ParseFloat(strings.TrimSpace(t[:len(t)-4]), 64)
		if err != nil {
			return 0, fmt.Errorf("units: bad bandwidth %q: %w", s, err)
		}
		return Gbps(v), nil
	}
	if strings.HasSuffix(lower, "mbps") {
		v, err := strconv.ParseFloat(strings.TrimSpace(t[:len(t)-4]), 64)
		if err != nil {
			return 0, fmt.Errorf("units: bad bandwidth %q: %w", s, err)
		}
		return Bandwidth(v * 1e6 / 8), nil
	}
	t = strings.TrimSuffix(t, "/s")
	v, err := parseBytes(t)
	if err != nil {
		return 0, fmt.Errorf("units: bad bandwidth %q: %w", s, err)
	}
	return Bandwidth(v), nil
}
