package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmokeEndToEnd boots the whole service on a loopback port, runs
// the self-test round trip (healthz, topk, classify, ingest, metrics),
// and drains — the same path the CI serve-smoke step exercises.
func TestSmokeEndToEnd(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-smoke", "-warmup", "6", "-interval", "2s"}, &stderr)
	if err != nil {
		t.Fatalf("smoke run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "smoke OK") {
		t.Fatalf("stderr missing smoke OK:\n%s", stderr.String())
	}
}

// TestSmokeUncoalescedBaseline runs the smoke with a non-default
// admission bound — there is one serving path, so this is the only
// query-side flag left to vary — and asserts the flags that selected
// the old coalesced/direct fork are gone rather than ignored.
func TestSmokeUncoalescedBaseline(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-smoke", "-warmup", "6", "-interval", "2s", "-max-queue", "4"}, &stderr)
	if err != nil {
		t.Fatalf("smoke run (max-queue 4): %v\nstderr:\n%s", err, stderr.String())
	}
	for _, gone := range []string{"-max-batch", "-max-wait"} {
		stderr.Reset()
		err := run([]string{"-smoke", gone, "1"}, &stderr)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: err = %v, want an unknown-flag error", gone, err)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-warmup", "1"}, &stderr); err == nil {
		t.Fatal("warmup 1 accepted, want error")
	}
	if err := run([]string{"-workload", "nope"}, &stderr); err == nil {
		t.Fatal("unknown workload accepted, want error")
	}
}
