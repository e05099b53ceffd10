package daemon

import (
	"strings"
	"testing"
)

func TestBootValidation(t *testing.T) {
	if _, err := Boot(Tracer(42), 1); err == nil {
		t.Error("unknown tracer should fail")
	}
	m, err := Boot(Fmeter, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fm == nil || m.Col == nil {
		t.Error("fmeter machine should expose backend and collector")
	}
	for _, tr := range []Tracer{Vanilla, Ftrace} {
		m, err := Boot(tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.Fm != nil || m.Col != nil {
			t.Errorf("%v machine should carry no counters or collector", tr)
		}
	}
}

func TestTracerString(t *testing.T) {
	if Vanilla.String() != "vanilla" || Ftrace.String() != "ftrace" || Fmeter.String() != "fmeter" {
		t.Error("tracer names wrong")
	}
	if !strings.Contains(Tracer(9).String(), "9") {
		t.Error("unknown tracer should render its value")
	}
}
