package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore or //lint:file-ignore
// comment.
type ignoreDirective struct {
	check    string // check ID or "all"
	file     string
	line     int
	fileWide bool   // //lint:file-ignore — suppresses check for the whole file
	broken   string // non-empty = malformed, holds the complaint
	pos      token.Pos
}

const (
	directivePrefix     = "lint:ignore"
	fileDirectivePrefix = "lint:file-ignore"
)

// collectIgnores parses every //lint:ignore and //lint:file-ignore
// directive in the package. The formats are
//
//	//lint:ignore <check> <reason>
//	//lint:file-ignore <check> <reason>
//
// A line directive suppresses matching diagnostics on its own line
// (trailing comment) or the line directly below (standalone comment);
// one directive covers every matching diagnostic on that line, however
// many there are. A file directive suppresses the named check across
// its whole file and is meant for files that are exceptions by design
// (e.g. a chaos injector whose entire job is to do the forbidden
// thing). A missing check or reason, or a check ID that names no
// registered analyzer (a typo, or a deleted check), makes the directive
// malformed, which the driver reports as a finding of its own — silent
// suppressions are exactly the failure mode this tool exists to
// prevent. "all" is rejected for file-ignore: a file exempt from every
// check should not be under analysis at all.
func collectIgnores(fset *token.FileSet, files []*ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fileWide := false
				text, ok := strings.CutPrefix(c.Text, "//"+fileDirectivePrefix)
				if ok {
					fileWide = true
				} else {
					text, ok = strings.CutPrefix(c.Text, "//"+directivePrefix)
					if !ok {
						continue
					}
				}
				pos := fset.Position(c.Pos())
				d := ignoreDirective{file: pos.Filename, line: pos.Line, fileWide: fileWide, pos: c.Pos()}
				fields := strings.Fields(text)
				switch {
				case len(fields) == 0:
					d.broken = "missing check ID and reason"
				case len(fields) == 1:
					d.broken = "missing reason (format: //" + directiveName(fileWide) + " <check> <reason>)"
				case fileWide && fields[0] == "all":
					d.broken = `file-ignore does not accept "all"; name the check being exempted`
				case fields[0] != "all" && !isCheck(fields[0]):
					d.broken = fmt.Sprintf("unknown check %q", fields[0])
				default:
					d.check = fields[0]
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// isCheck reports whether name is a registered analyzer's check ID.
func isCheck(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

func directiveName(fileWide bool) string {
	if fileWide {
		return fileDirectivePrefix
	}
	return directivePrefix
}

// applyIgnores filters diags through the directives and appends a
// diagnostic (check "lint") for every malformed directive.
func applyIgnores(diags []Diagnostic, directives []ignoreDirective) []Diagnostic {
	type key struct {
		file  string
		line  int
		check string
	}
	type fileKey struct {
		file  string
		check string
	}
	suppressed := make(map[key]bool)
	fileSuppressed := make(map[fileKey]bool)
	var out []Diagnostic
	for _, d := range directives {
		if d.broken != "" {
			out = append(out, Diagnostic{
				Check: "lint", File: d.file, Line: d.line, Col: 1,
				Message: "malformed //" + directiveName(d.fileWide) + " directive: " + d.broken,
			})
			continue
		}
		if d.fileWide {
			fileSuppressed[fileKey{d.file, d.check}] = true
			continue
		}
		for _, line := range []int{d.line, d.line + 1} {
			suppressed[key{d.file, line, d.check}] = true
		}
	}
	for _, diag := range diags {
		if suppressed[key{diag.File, diag.Line, diag.Check}] || suppressed[key{diag.File, diag.Line, "all"}] ||
			fileSuppressed[fileKey{diag.File, diag.Check}] {
			continue
		}
		out = append(out, diag)
	}
	return out
}
