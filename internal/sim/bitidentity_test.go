package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ooc/internal/core"
	"ooc/internal/dyn"
	"ooc/internal/usecases"
)

// The transient stepper's output is pinned bit for bit: any change to
// its arithmetic (assembly order, factorization, source evaluation)
// shows up here as a diff, not as a tolerance-sized drift. Regenerate
// after an intentional change to the numerics with:
//
//	go test ./internal/sim/ -run TestDynamicBitIdentity -update
var update = flag.Bool("update", false, "rewrite the bit-identity pins")

// pinProfiles are the pump drives the pins cover: steady pumping and
// the Fig. 4 pulsatile mode.
var pinProfiles = []dyn.Profile{
	{Kind: dyn.ProfileConstant},
	{Kind: dyn.ProfilePulse, Amplitude: 0.5, Period: 0.25},
}

// dosedOptions is a pulsatile-or-constant dosed run over span, dosed
// for the whole span with arrivals latched at 10% of the dose.
func dosedOptions(span time.Duration, prof dyn.Profile) Options {
	opt := dynOptions()
	opt.Dynamic.Duration = span
	opt.Dynamic.Profile = prof
	opt.Dynamic.Species = dyn.Species{Enabled: true, DoseConcentration: 1, DoseDuration: span.Seconds(), ArrivalThreshold: 0.1}
	return opt
}

// dumpBits renders v one leaf per line as "path = value", floats in
// strconv's 'x' (hexadecimal mantissa and exponent) format so the text
// carries every bit. The design an embedded Report points at is an
// input of the run, not its output, and is skipped.
func dumpBits(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		dumpBits(b, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Type == reflect.TypeOf((*core.Design)(nil)) {
				continue
			}
			dumpBits(b, path+"."+f.Name, v.Field(i))
		}
	case reflect.Slice:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		for i := 0; i < v.Len(); i++ {
			dumpBits(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Float64:
		fmt.Fprintf(b, "%s = %s\n", path, strconv.FormatFloat(v.Float(), 'x', -1, 64))
	case reflect.Int:
		fmt.Fprintf(b, "%s = %d\n", path, v.Int())
	case reflect.String:
		fmt.Fprintf(b, "%s = %q\n", path, v.String())
	default:
		panic(fmt.Sprintf("dumpBits: %s has unsupported kind %s", path, v.Kind()))
	}
}

func dumpReport(dr *DynamicReport) string {
	var b strings.Builder
	dumpBits(&b, "report", reflect.ValueOf(dr))
	return b.String()
}

// checkPin compares got against testdata/<name>, or rewrites the file
// under -update.
func checkPin(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading pin %s (regenerate with -update): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
}

// TestDynamicBitIdentityFig4 pins the full Fig. 4 1 s pulsatile dosed
// transient report — every sample, arrival time, final state and
// stepper counter — to the bit.
func TestDynamicBitIdentityFig4(t *testing.T) {
	dr, err := ValidateDynamic(fig4Design(t), dosedOptions(time.Second, pinProfiles[1]))
	if err != nil {
		t.Fatalf("dynamic validate: %v", err)
	}
	checkPin(t, "dynamic_fig4_pulse.golden", dumpReport(dr))
}

// TestDynamicBitIdentitySweep pins a SHA-256 over the transient
// reports of every paper-sweep instance: dosed under both pump
// profiles, plus an undosed constant-pump run whose steps are capped
// by MaxStep rather than by the CFL bound. The span covers the
// start-up transient, where the controller rejects steps, and the
// CFL-limited advance of the dosing front.
func TestDynamicBitIdentitySweep(t *testing.T) {
	const span = 100 * time.Millisecond
	undosed := dynOptions()
	undosed.Dynamic.Duration = span
	h := sha256.New()
	for _, in := range usecases.Instances(usecases.All(), usecases.PaperSweep()) {
		d, err := core.Generate(in.Spec)
		if err != nil {
			t.Fatalf("%s: generate: %v", in.Label(), err)
		}
		runs := []Options{dosedOptions(span, pinProfiles[0]), dosedOptions(span, pinProfiles[1]), undosed}
		for _, opt := range runs {
			dr, err := ValidateDynamic(d, opt)
			if err != nil {
				t.Fatalf("%s/%s: dynamic validate: %v", in.Label(), opt.Dynamic.CacheKey(), err)
			}
			_, _ = fmt.Fprintf(h, "%s %s\n%s", in.Label(), opt.Dynamic.CacheKey(), dumpReport(dr)) // hash writes never fail
		}
	}
	checkPin(t, "dynamic_sweep.sha256", hex.EncodeToString(h.Sum(nil))+"\n")
}
