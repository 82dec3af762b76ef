package sim

import "testing"

func TestDetectorDeclareTime(t *testing.T) {
	d := NewDetector(50, 100)
	cases := []struct {
		diedAt, want Time
	}{
		{0, 150},    // last beat at 0, missed beat at 50, +timeout
		{1, 150},    // mid-period death waits for the same missed beat
		{49.9, 150}, // just before the beat still counts the beat as missed
		{50, 200},   // death exactly on a beat: that beat went out, 100 is missed
		{125, 250},  // beat at 100 sent, 150 missed
		{1000, 1150},
	}
	for _, c := range cases {
		if got := d.DeclareTime(c.diedAt); got != c.want {
			t.Errorf("DeclareTime(%v) = %v, want %v", c.diedAt, got, c.want)
		}
	}
}

func TestDetectorZeroPeriod(t *testing.T) {
	d := NewDetector(0, 25)
	if got := d.DeclareTime(10); got != 35 {
		t.Errorf("DeclareTime(10) = %v, want 35", got)
	}
}
