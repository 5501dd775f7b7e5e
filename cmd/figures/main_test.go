package main

import (
	"testing"
	"time"
)

// TestShortDur holds Fig. 6's indexing-time cells to the rounded
// duration, digits and unit intact.
func TestShortDur(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{150 * time.Millisecond, "150ms"},
		{20 * time.Millisecond, "20ms"},
		{15 * time.Millisecond, "15ms"},
		{15400 * time.Microsecond, "15ms"},
		{0, "0s"},
		{1500 * time.Millisecond, "1.5s"},
	} {
		if got := shortDur(tc.d); got != tc.want {
			t.Errorf("shortDur(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}
