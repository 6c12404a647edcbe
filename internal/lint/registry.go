package lint

import "go/ast"

// DeterministicScope lists the packages whose output must be a pure
// function of the input design and options: the geometry kernels, the
// triangulation, via planning, the routing graph, both routing stages, the
// net-ordering portfolio and the verifier. Everything the byte-identical
// differential tests protect lives here.
var DeterministicScope = []string{
	"internal/geom",
	"internal/dt",
	"internal/viaplan",
	"internal/rgraph",
	"internal/global",
	"internal/portfolio",
	"internal/detail",
	"internal/verify",
}

// ClockScope extends the deterministic scope with the packages that are
// allowed to observe wall-clock time for observability and job accounting
// — but only through sites acknowledged with //rdl:allow, so every
// wall-clock read in the serving path is inventoried.
var ClockScope = append(append([]string{}, DeterministicScope...),
	"internal/obs",
	"internal/serve",
)

// GeometryScope is where raw float equality is banned: the numeric
// kernels whose predicates must go through the Eps helpers.
var GeometryScope = []string{
	"internal/geom",
	"internal/dt",
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detrand,
		Mapiter,
		Floateq,
		Barego,
		Noalloc,
		Transalloc,
	}
}

// Lint runs the analyzers over every package of the module, honouring
// per-analyzer scopes and //rdl:allow suppressions, and returns the
// findings in canonical order.
func (m *Module) Lint(analyzers []*Analyzer) []Finding {
	return m.lint(analyzers, true)
}

// LintUnsuppressed runs the analyzers with //rdl:allow suppression
// disabled. The repo test uses it to prove every allow in the tree is
// load-bearing: each one must cover at least one raw finding.
func (m *Module) LintUnsuppressed(analyzers []*Analyzer) []Finding {
	return m.lint(analyzers, false)
}

func (m *Module) lint(analyzers []*Analyzer, suppress bool) []Finding {
	var raw []Finding
	for _, pkg := range m.Pkgs {
		var scoped []*Analyzer
		for _, a := range analyzers {
			if a.Run != nil && a.AppliesTo(m.Path, pkg.Path) {
				scoped = append(scoped, a)
			}
		}
		raw = append(raw, runAnalyzers(pkg, scoped)...)
	}
	// Interprocedural passes run once over the whole module, after every
	// package is loaded: a transalloc finding carries a call chain that may
	// cross several packages, and the allow that acknowledges it lives at
	// the flagged site, wherever that is. Suppression is therefore applied
	// globally — one allow inventory over all files — rather than
	// per package.
	runModuleAnalyzers(m, analyzers, &raw)
	if !suppress {
		sortFindings(raw)
		return raw
	}
	allows := collectAllows(m.Fset, m.allFiles())
	out := applyAllows(raw, allows, analyzerNames(analyzers))
	sortFindings(out)
	return out
}

// allFiles returns every parsed file of the module.
func (m *Module) allFiles() []*ast.File {
	var files []*ast.File
	for _, pkg := range m.Pkgs {
		files = append(files, pkg.Files...)
	}
	return files
}
