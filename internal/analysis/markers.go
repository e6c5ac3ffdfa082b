package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Marker grammar (DESIGN.md §4c): a justification comment of the form
//
//	//<analyzer>:<verb> <reason>
//
// suppresses a specific diagnostic at the site it annotates. The reason
// is mandatory — an empty reason is itself a diagnostic, so every
// suppression in the tree documents *why* the hazard is acceptable. A
// marker applies to its own line (trailing comment) or to the line
// directly below (comment on its own line above the flagged construct).
//
// Markers in use:
//
//	//hookpure:alloc <reason>    hookpure: justified amortized allocation
//	//hookpure:cold <reason>     hookpure: method is not on the hot path
//	//simdet:unordered <reason>  simdet: order-insensitive map iteration

// markerAt is one parsed justification comment.
type markerAt struct {
	pos    token.Pos
	reason string
}

// markerLines collects every marker with the given prefix (e.g.
// "//hookpure:alloc") in a file, keyed by the line it annotates: its
// own line and the line below both map to the marker.
func markerLines(fset *token.FileSet, file *ast.File, prefix string) map[int]markerAt {
	lines := map[int]markerAt{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, prefix)
			if !ok {
				continue
			}
			// Reject prefix collisions such as //hookpure:allocator.
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			m := markerAt{pos: c.Pos(), reason: strings.TrimSpace(rest)}
			line := fset.Position(c.Pos()).Line
			lines[line] = m
			if _, taken := lines[line+1]; !taken {
				lines[line+1] = m
			}
		}
	}
	return lines
}

// markersByFile collects every marker with the given prefix in files,
// keyed by file name and then by the line each marker annotates.
func markersByFile(fset *token.FileSet, files []*ast.File, prefix string) map[string]map[int]markerAt {
	byFile := map[string]map[int]markerAt{}
	for _, file := range files {
		byFile[fset.Position(file.Pos()).Filename] = markerLines(fset, file, prefix)
	}
	return byFile
}

// reportEmptyMarkers emits one diagnostic per marker whose reason is
// missing: a justification that does not justify suppresses nothing.
func reportEmptyMarkers(pass *Pass, byFile map[string]map[int]markerAt, prefix string) {
	seen := map[token.Pos]bool{}
	for _, marks := range byFile {
		for _, m := range marks {
			if m.reason == "" && !seen[m.pos] {
				seen[m.pos] = true
				pass.Reportf(m.pos, "%s marker requires a reason: `%s <why this is safe>`", prefix, prefix)
			}
		}
	}
}

// suppressed reports whether the line of pos carries (or follows) a
// marker with a non-empty reason.
func suppressed(byFile map[string]map[int]markerAt, fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	m, ok := byFile[p.Filename][p.Line]
	return ok && m.reason != ""
}
