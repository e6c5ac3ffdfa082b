package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// expectation is one `// want "regex"` comment parsed from a golden
// fixture, in the style of x/tools analysistest: the comment's line must
// receive a diagnostic whose message matches the regex.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// CheckExpectations runs the analyzers over the packages matched by
// patterns (resolved from dir), compares the diagnostics against the
// fixtures' `// want` comments, and returns one error string per
// mismatch: a diagnostic with no matching want, or a want with no
// matching diagnostic. An empty result means the fixture is golden.
//
// Dependencies of the matched packages are analyzed for summaries (so
// multi-package fixtures exercise the interprocedural path exactly like
// the production driver) but contribute neither wants nor diagnostics;
// list every package whose findings matter as a pattern. A test variant
// lists its package's non-test files again; their wants count once.
func CheckExpectations(dir string, analyzers []*Analyzer, patterns ...string) ([]string, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	diags, err := runLoaded(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	var problems []string
	var wants []*expectation
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Dep {
			continue
		}
		for _, file := range pkg.Files {
			name := pkg.Fset.File(file.Pos()).Name()
			if seen[name] {
				continue
			}
			seen[name] = true
			ws, err := parseWants(pkg.Fset, file)
			if err != nil {
				return nil, err
			}
			wants = append(wants, ws...)
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.met || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for _, w := range wants {
		if !w.met {
			problems = append(problems, fmt.Sprintf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw))
		}
	}
	return problems, nil
}

// parseWants extracts `// want "re1" "re2"` expectations. Each quoted
// string is a regexp that must match a diagnostic on the comment's line.
func parseWants(fset *token.FileSet, file *ast.File) ([]*expectation, error) {
	var wants []*expectation
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(text, "want "))
			for rest != "" {
				lit, tail, err := scanString(rest)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
				}
				re, err := regexp.Compile(lit)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit, err)
				}
				wants = append(wants, &expectation{
					file: pos.Filename,
					line: pos.Line,
					re:   re,
					raw:  lit,
				})
				rest = strings.TrimSpace(tail)
			}
		}
	}
	return wants, nil
}

// scanString consumes one leading Go string literal (double- or
// back-quoted) and returns its value plus the remainder.
func scanString(s string) (string, string, error) {
	if s == "" {
		return "", "", fmt.Errorf("empty expectation")
	}
	switch s[0] {
	case '`':
		end := strings.IndexByte(s[1:], '`')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated raw string")
		}
		return s[1 : 1+end], s[2+end:], nil
	case '"':
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				val, err := strconv.Unquote(s[:i+1])
				if err != nil {
					return "", "", err
				}
				return val, s[i+1:], nil
			}
		}
		return "", "", fmt.Errorf("unterminated string")
	}
	return "", "", fmt.Errorf("expectation must be a quoted regexp, got %q", s)
}
