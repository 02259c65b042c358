// Command axml is the command-line front end to the intensional-XML
// rewriting library: validate documents against intensional schemas, decide
// and execute safe/possible/mixed rewritings, and check schema-to-schema
// compatibility.
//
// Schemas load from two formats, chosen by extension: .xsd/.xml files are
// XML Schema_int documents; anything else uses the compact text DSL (see
// internal/schema).
//
//	axml validate -schema s.axs doc.xml
//	axml check -sender s0.axs -target s.axs -mode safe -k 2 doc.xml
//	axml rewrite -sender s0.axs -target s.axs -mode safe -k 2 -sim 7 doc.xml
//	axml schema-check -sender s0.axs -target s.axs -k 1 [-root label]
//	axml convert -schema s.axs [-wsdl name -endpoint url]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/soap"
	"axml/internal/telemetry"
	"axml/internal/workload"
	"axml/internal/wsdl"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "axml:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "validate":
		return cmdValidate(args[1:])
	case "check":
		return cmdCheck(args[1:])
	case "rewrite":
		return cmdRewrite(args[1:])
	case "schema-check":
		return cmdSchemaCheck(args[1:])
	case "convert":
		return cmdConvert(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: axml <command> [flags] [doc.xml]

commands:
  validate      check a document is an instance of a schema
  check         decide whether a document rewrites into a target schema
  rewrite       execute the rewriting (simulated or SOAP services)
  schema-check  decide schema-to-schema safe rewriting (Definition 6)
  convert       print a schema as XML Schema_int or WSDL_int
`)
}

// loadSchema reads a schema file; .xsd/.xml mean XML Schema_int, everything
// else the text DSL. table may be nil for a fresh symbol table.
func loadSchema(path string, table *regex.Table) (*schema.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".xsd") || strings.HasSuffix(path, ".xml") {
		return xsdint.ParseString(string(data), xsdint.Options{Table: table})
	}
	if table == nil {
		return schema.ParseText(string(data), nil)
	}
	return schema.ParseTextShared(schema.NewShared(table), string(data), nil)
}

func loadDoc(path string) (*doc.Node, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xmlio.Parse(f)
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "safe":
		return core.Safe, nil
	case "possible":
		return core.Possible, nil
	case "mixed":
		return core.Mixed, nil
	default:
		return core.Safe, fmt.Errorf("mode must be safe, possible or mixed (got %q)", s)
	}
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	schemaPath := fs.String("schema", "", "schema file (.axs text DSL or .xsd XML Schema_int)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *schemaPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("validate needs -schema and one document")
	}
	s, err := loadSchema(*schemaPath, nil)
	if err != nil {
		return err
	}
	d, err := loadDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := schema.NewContext(s, nil).Validate(d); err != nil {
		return err
	}
	fmt.Printf("%s is a valid instance of %s\n", fs.Arg(0), *schemaPath)
	return nil
}

// loadPair loads sender and target schemas over one symbol table.
func loadPair(senderPath, targetPath string) (*schema.Schema, *schema.Schema, error) {
	sender, err := loadSchema(senderPath, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("sender schema: %w", err)
	}
	target, err := loadSchema(targetPath, sender.Table)
	if err != nil {
		return nil, nil, fmt.Errorf("target schema: %w", err)
	}
	return sender, target, nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	senderPath := fs.String("sender", "", "sender schema (function signatures)")
	targetPath := fs.String("target", "", "exchange schema")
	modeStr := fs.String("mode", "safe", "safe | possible")
	k := fs.Int("k", 2, "rewriting depth bound")
	lazy := fs.Bool("lazy", false, "use the lazy analysis variant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *senderPath == "" || *targetPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("check needs -sender, -target and one document")
	}
	if *k < 0 {
		return fmt.Errorf("-k must not be negative, got %d", *k)
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		return err
	}
	sender, target, err := loadPair(*senderPath, *targetPath)
	if err != nil {
		return err
	}
	d, err := loadDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{})
	rw.K = *k
	if *lazy {
		rw.Engine = core.Lazy
	}
	if err := rw.CheckDocument(d, mode); err != nil {
		return fmt.Errorf("NOT %s-rewritable (k=%d): %w", mode, *k, err)
	}
	fmt.Printf("%s %s-rewrites into %s within depth %d\n", fs.Arg(0), mode, *targetPath, *k)
	return nil
}

func cmdRewrite(args []string) error {
	fs := flag.NewFlagSet("rewrite", flag.ContinueOnError)
	senderPath := fs.String("sender", "", "sender schema (function signatures)")
	targetPath := fs.String("target", "", "exchange schema")
	modeStr := fs.String("mode", "safe", "safe | possible | mixed")
	k := fs.Int("k", 2, "rewriting depth bound")
	simSeed := fs.Int64("sim", -1, "simulate services with this random seed")
	endpoint := fs.String("endpoint", "", "default SOAP endpoint for service calls")
	lazy := fs.Bool("lazy", false, "use the lazy analysis variant")
	audit := fs.Bool("audit", false, "print the invocation trail to stderr")
	verbose := fs.Bool("v", false, "tag the run with a rewrite id and print it with the invocation trail to stderr")
	parallel := fs.Int("parallel", 1, "parallel materialization degree (1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", *parallel)
	}
	if *senderPath == "" || *targetPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("rewrite needs -sender, -target and one document")
	}
	if *k < 0 {
		return fmt.Errorf("-k must not be negative, got %d", *k)
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		return err
	}
	sender, target, err := loadPair(*senderPath, *targetPath)
	if err != nil {
		return err
	}
	d, err := loadDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	var invoker core.Invoker
	switch {
	case *simSeed >= 0:
		invoker = workload.NewSimInvoker(sender, rand.New(rand.NewSource(*simSeed)))
	case *endpoint != "":
		invoker = &soap.Invoker{Default: *endpoint}
	default:
		return fmt.Errorf("rewrite needs -sim <seed> or -endpoint <url>")
	}
	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Invoker: invoker, Parallelism: *parallel})
	rw.K = *k
	if *lazy {
		rw.Engine = core.Lazy
	}
	ctx := context.Background()
	if *verbose {
		// One generated id per top-level rewrite; every audit record carries
		// it, so runs can be correlated with peer-side telemetry.
		id := telemetry.NewID()
		ctx = telemetry.WithTraceID(ctx, id)
		fmt.Fprintf(os.Stderr, "rewrite %s mode=%s k=%d\n", id, mode, *k)
	}
	out, err := rw.RewriteDocument(ctx, d, mode)
	if *audit || *verbose {
		for _, c := range rw.Audit.Calls() {
			fmt.Fprintf(os.Stderr, "call %-20s rewrite=%s depth=%d cost=%.2f returned %d nodes\n",
				c.Func, c.Rewrite, c.Depth, c.Cost, c.ResultNodes)
		}
	}
	if err != nil {
		return err
	}
	return xmlio.Write(os.Stdout, out)
}

func cmdSchemaCheck(args []string) error {
	fs := flag.NewFlagSet("schema-check", flag.ContinueOnError)
	senderPath := fs.String("sender", "", "sender schema")
	targetPath := fs.String("target", "", "exchange schema")
	root := fs.String("root", "", "root label (defaults to the sender schema's)")
	k := fs.Int("k", 1, "rewriting depth bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *senderPath == "" || *targetPath == "" {
		return fmt.Errorf("schema-check needs -sender and -target")
	}
	if *k < 0 {
		return fmt.Errorf("-k must not be negative, got %d", *k)
	}
	sender, target, err := loadPair(*senderPath, *targetPath)
	if err != nil {
		return err
	}
	report, err := core.SchemaSafeRewrite(core.Compile(sender, target), *root, *k)
	if err != nil {
		return err
	}
	for _, v := range report.Verdicts {
		status := "safe"
		if !v.Safe {
			status = "UNSAFE"
		}
		fmt.Printf("%-20s %s", v.Label, status)
		if v.Reason != "" {
			fmt.Printf("  (%s)", v.Reason)
		}
		fmt.Println()
	}
	if !report.Safe() {
		return fmt.Errorf("schema %s does NOT safely rewrite into %s", *senderPath, *targetPath)
	}
	fmt.Printf("schema %s safely rewrites into %s (root %s, k=%d)\n", *senderPath, *targetPath, report.Root, *k)
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	schemaPath := fs.String("schema", "", "schema file to convert")
	asWSDL := fs.String("wsdl", "", "emit WSDL_int with this service name")
	endpoint := fs.String("endpoint", "", "service endpoint for WSDL output")
	asText := fs.Bool("text", false, "emit the compact text DSL instead of XSD_int")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *schemaPath == "" {
		return fmt.Errorf("convert needs -schema")
	}
	s, err := loadSchema(*schemaPath, nil)
	if err != nil {
		return err
	}
	switch {
	case *asText:
		fmt.Print(s.Text())
		return nil
	case *asWSDL != "":
		return wsdl.Write(os.Stdout, &wsdl.Description{
			Name:            *asWSDL,
			TargetNamespace: "urn:axml:" + *asWSDL,
			Endpoint:        *endpoint,
			Schema:          s,
		}, nil)
	default:
		return xsdint.Write(os.Stdout, s, nil)
	}
}
