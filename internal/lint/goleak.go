package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// GoLeak requires every goroutine spawned in the concurrent subsystems —
// the daemon, the tenant layer, and the fan-out helpers — to have a
// provable termination/join path: somewhere reachable in the spawned
// function (following call and defer edges through the module) there
// must be a sync.WaitGroup.Done, a send on a collector channel (the
// errgroup shape), or a receive/select on a cancellation channel. A
// goroutine with none of these can outlive every tick and leak; in the
// daemon that is memory growth and a shutdown that never drains.
//
// Nested go statements do not count as join evidence for their spawner
// (the inner goroutine joining says nothing about the outer one), and a
// goroutine spawned through a bare function value is unprovable by
// construction and always flagged.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "require a provable join (WaitGroup.Done, collector send, or cancellation receive) " +
		"for every goroutine in daemon, tenant, and the fan-out helpers",
	RunModule: runGoLeak,
}

// goleakCovered scopes the analyzer to the concurrent subsystems.
func goleakCovered(pkgPath, filename string) bool {
	base := filepath.Base(filename)
	switch pkgPath {
	case "harmony/internal/daemon":
		return true
	case "harmony/internal/tenant": // per-tenant ingest workers + group tick fan-out
		return true
	case "harmony": // the parallel experiment fan-out
		return base == "parallel.go"
	case "harmony/internal/fanout": // sim's audit, core placement, k-means restarts and groups
		return true
	case "harmony/internal/trace": // streaming sources are single-goroutine by contract
		return true
	}
	return strings.HasPrefix(pkgPath, "fixture/goleak")
}

func runGoLeak(pass *ModulePass) {
	for _, n := range pass.Graph.Funcs {
		// A go statement through a bare function value is unprovable by
		// construction, whatever candidate edges the graph resolved.
		for _, dp := range n.DynGo {
			if goleakCovered(n.Pkg.Path, pass.Fset().Position(dp).Filename) {
				pass.Reportf(dp,
					"goroutine spawned through a function value; its join cannot be proven — spawn a named function or literal with an explicit join (//harmony:allow goleak <reason> to permit)")
			}
		}
		for _, e := range n.Out {
			if e.Kind != EdgeGo {
				continue
			}
			pos := pass.Fset().Position(e.Pos)
			if !goleakCovered(n.Pkg.Path, pos.Filename) {
				continue
			}
			if e.Dynamic && e.Via == "function value" {
				continue // the DynGo site report covers this spawn
			}
			if _, ok := joinEvidence(e.Callee, nil); ok {
				continue
			}
			pass.Reportf(e.Pos,
				"goroutine %s has no provable join: no sync.WaitGroup.Done, channel send, or cancellation receive is reachable from its body; unjoined goroutines leak (//harmony:allow goleak <reason> to permit)",
				e.Callee.Name)
		}
	}
}

// joinEvidence reports whether a join signal is reachable from node via
// call and defer edges (not nested go edges: an inner goroutine's join
// does not join the outer one).
func joinEvidence(node *Node, seen map[*Node]bool) (string, bool) {
	if seen == nil {
		seen = make(map[*Node]bool)
	}
	if seen[node] {
		return "", false
	}
	seen[node] = true

	// WaitGroup.Done anywhere in this body, including deferred.
	for _, ext := range node.Ext {
		fn := ext.Fn
		if fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Done" {
			return "WaitGroup.Done", true
		}
	}
	// Channel operations in this body: a send is the collector shape, a
	// receive or select is the cancellation shape.
	found := ""
	forEachOwnNode(node.Body(), func(a ast.Node) {
		if found != "" {
			return
		}
		switch v := a.(type) {
		case *ast.SendStmt:
			found = "channel send"
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				found = "channel receive"
			}
		case *ast.SelectStmt:
			found = "select"
		case *ast.RangeStmt:
			if tv, ok := node.Pkg.Info.Types[v.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = "range over channel"
				}
			}
		}
	})
	if found != "" {
		return found, true
	}
	for _, e := range node.Out {
		if e.Kind == EdgeGo {
			continue
		}
		if why, ok := joinEvidence(e.Callee, seen); ok {
			return why, true
		}
	}
	return "", false
}
