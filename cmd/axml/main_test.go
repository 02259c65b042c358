package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	out, _ := io.ReadAll(r)
	return string(out), runErr
}

func TestValidateCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"validate", "-schema", "testdata/star.axs", "testdata/newspaper.xml"})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "valid instance") {
		t.Errorf("output = %q", out)
	}
	// The same document is not an instance of (**).
	if _, err := capture(t, func() error {
		return run([]string{"validate", "-schema", "testdata/starstar.axs", "testdata/newspaper.xml"})
	}); err == nil {
		t.Error("validation against (**) should fail")
	}
}

func TestCheckCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"check", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs",
			"-mode", "safe", "-k", "1", "testdata/newspaper.xml"})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "safe-rewrites") {
		t.Errorf("output = %q", out)
	}
	// (***) is not safe but is possible.
	if _, err := capture(t, func() error {
		return run([]string{"check", "-sender", "testdata/star.axs", "-target", "testdata/tristar.axs",
			"-mode", "safe", "-k", "1", "testdata/newspaper.xml"})
	}); err == nil {
		t.Error("safe check against (***) should fail")
	}
	if _, err := capture(t, func() error {
		return run([]string{"check", "-sender", "testdata/star.axs", "-target", "testdata/tristar.axs",
			"-mode", "possible", "-k", "1", "testdata/newspaper.xml"})
	}); err != nil {
		t.Errorf("possible check against (***) should pass: %v", err)
	}
	// Depth 0 invokes nothing, so (**) is out of reach: -k 0 must stay
	// depth 0, not fall back to the default depth. A negative depth is
	// refused as a flag error.
	for k, want := range map[string]string{"0": "NOT safe-rewritable (k=0)", "-1": "-k must not be negative"} {
		_, err := capture(t, func() error {
			return run([]string{"check", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs",
				"-k", k, "testdata/newspaper.xml"})
		})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("check -k %s: error = %v, want it to contain %q", k, err, want)
		}
	}
}

func TestRewriteCommandSimulated(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"rewrite", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs",
			"-mode", "safe", "-k", "1", "-sim", "7", "testdata/newspaper.xml"})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "<temp>") {
		t.Errorf("rewritten output missing materialized temp:\n%s", out)
	}
	if !strings.Contains(out, "TimeOut") {
		t.Errorf("TimeOut should be kept:\n%s", out)
	}
}

// TestRewriteVerbose: -v prints a generated rewrite id and stamps it on the
// invocation trail.
func TestRewriteVerbose(t *testing.T) {
	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	_, runErr := capture(t, func() error {
		return run([]string{"rewrite", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs",
			"-mode", "safe", "-k", "1", "-sim", "7", "-v", "testdata/newspaper.xml"})
	})
	w.Close()
	os.Stderr = oldErr
	errOut, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("%v\n%s", runErr, errOut)
	}
	lines := strings.Split(strings.TrimSpace(string(errOut)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "rewrite ") {
		t.Fatalf("stderr should open with the rewrite id:\n%s", errOut)
	}
	id := strings.Fields(lines[0])[1]
	var sawCall bool
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "call ") {
			sawCall = true
			if !strings.Contains(l, "rewrite="+id) {
				t.Errorf("call line not stamped with %s: %q", id, l)
			}
		}
	}
	if !sawCall {
		t.Errorf("no call lines on stderr:\n%s", errOut)
	}
}

func TestSchemaCheckCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"schema-check", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs", "-k", "1"})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "safely rewrites") {
		t.Errorf("output = %q", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"schema-check", "-sender", "testdata/star.axs", "-target", "testdata/tristar.axs", "-k", "1"})
	})
	if err == nil {
		t.Error("schema-check against (***) should fail")
	}
	if !strings.Contains(out, "UNSAFE") {
		t.Errorf("output should list the unsafe label:\n%s", out)
	}
}

func TestConvertCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"convert", "-schema", "testdata/star.axs"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<schema") || !strings.Contains(out, `function id="Get_Temp"`) {
		t.Errorf("XSD output wrong:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"convert", "-schema", "testdata/star.axs", "-wsdl", "news", "-endpoint", "http://x/soap"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<definitions") || !strings.Contains(out, `location="http://x/soap"`) {
		t.Errorf("WSDL output wrong:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"convert", "-schema", "testdata/star.axs", "-text"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "elem newspaper") {
		t.Errorf("text output wrong:\n%s", out)
	}
}

// TestCommandErrors: every error fails the command, with exit status 2
// for a usage error (a missing or unknown command, an undefined flag or a
// bad flag value, a missing argument) and 1 for a refused or failed
// operation; help succeeds.
func TestCommandErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
	}{
		{nil, 2},
		{[]string{"bogus"}, 2},
		{[]string{"validate"}, 2},
		{[]string{"validate", "-schema", "missing.axs", "testdata/newspaper.xml"}, 1},
		{[]string{"validate", "-schema", "testdata/starstar.axs", "testdata/newspaper.xml"}, 1},
		{[]string{"check", "-sender", "testdata/star.axs", "testdata/newspaper.xml"}, 2},
		{[]string{"check", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs", "-mode", "bogus", "testdata/newspaper.xml"}, 2},
		{[]string{"check", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs", "-lazy", "testdata/newspaper.xml"}, 2}, // removed flag
		{[]string{"check", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs", "-k", "-1", "testdata/newspaper.xml"}, 2},
		{[]string{"check", "-sender", "testdata/star.axs", "-target", "testdata/tristar.axs", "-k", "1", "testdata/newspaper.xml"}, 1}, // not safe
		{[]string{"rewrite", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs", "-sim", "7", "-lazy", "testdata/newspaper.xml"}, 2},
		{[]string{"rewrite", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs", "testdata/newspaper.xml"}, 2}, // no -sim/-endpoint
		{[]string{"schema-check"}, 2},
		{[]string{"schema-check", "-sender", "testdata/star.axs", "-target", "testdata/tristar.axs"}, 1},
		{[]string{"convert"}, 2},
		{[]string{"convert", "-schema", "missing.axs"}, 1},
		{[]string{"help"}, 0},
		{[]string{"validate", "-h"}, 0},
	} {
		_, err := capture(t, func() error { return run(tc.args) })
		if tc.status != 0 && err == nil {
			t.Errorf("run(%v) should fail", tc.args)
		}
		if got := exitStatus(err); got != tc.status {
			t.Errorf("run(%v): exit status %d, want %d (error %v)", tc.args, got, tc.status, err)
		}
	}
}

// TestXSDRoundTripThroughCLI converts the DSL schema to XSD, then validates
// the document against the converted file.
func TestXSDRoundTripThroughCLI(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"convert", "-schema", "testdata/star.axs"})
	})
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir() + "/star.xsd"
	if err := os.WriteFile(tmp, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"validate", "-schema", tmp, "testdata/newspaper.xml"})
	}); err != nil {
		t.Errorf("validation against converted XSD failed: %v", err)
	}
}
