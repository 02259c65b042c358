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
			"-mode", "possible", "-k", "1", "-lazy", "testdata/newspaper.xml"})
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

func TestCommandErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"validate"},
		{"validate", "-schema", "missing.axs", "testdata/newspaper.xml"},
		{"check", "-sender", "testdata/star.axs", "testdata/newspaper.xml"},
		{"check", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs", "-mode", "bogus", "testdata/newspaper.xml"},
		{"rewrite", "-sender", "testdata/star.axs", "-target", "testdata/starstar.axs", "testdata/newspaper.xml"}, // no -sim/-endpoint
		{"schema-check"},
		{"convert"},
	} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	if _, err := capture(t, func() error { return run([]string{"help"}) }); err != nil {
		t.Errorf("help should succeed: %v", err)
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
