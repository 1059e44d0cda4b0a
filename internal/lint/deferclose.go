package lint

// DeferClose is the CFG-accurate successor of the mutexspan analyzer.
// It proves, per function, two release disciplines:
//
//  1. Every acquired resource — a locked mutex, a time.Ticker/Timer, an
//     opened file, an http response — is released on every path that
//     reaches the function exit. Releases may be explicit (Unlock,
//     Stop, Close) or deferred; a deferred release covers every path
//     from its registration point. Ownership transfer is recognized
//     leniently: returning the resource, passing it to another call, or
//     storing it somewhere kills the obligation, as does returning the
//     error value the acquisition produced (the error path where the
//     resource was never valid).
//
//  2. No blocking operation — channel send/receive, select without
//     default, range over a channel, WaitGroup.Wait, time.Sleep,
//     net/http round-trips — runs while a mutex is held. Here deferred
//     unlocks do NOT release: a lock held to function exit is held at
//     the blocking site.
//
// Both checks are flow-sensitive: a resource released on one branch and
// leaked on another is reported with the leaking side's position.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

var DeferClose = &Analyzer{
	Name: "deferclose",
	Doc: "require every acquired resource (locks, tickers, files, response bodies) to be " +
		"released on all paths, and forbid blocking calls while a mutex is held",
	Packages: func(pkgPath string) bool {
		switch pkgPath {
		case "harmony", "harmony/internal/daemon", "harmony/internal/tenant",
			"harmony/internal/metrics", "harmony/internal/fanout",
			"harmony/cmd/harmonyd":
			return true
		}
		return false
	},
	Files: func(pkgPath, filename string) bool {
		base := filename
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		switch pkgPath {
		case "harmony":
			return base == "parallel.go"
		}
		return true
	},
	Run: runDeferClose,
}

// resAcq is one outstanding release obligation.
type resAcq struct {
	Pos     token.Pos
	What    string       // rendered resource name for messages
	Release string       // the expected releasing call, for messages
	Obj     types.Object // the variable holding the resource (nil for locks)
	ErrObj  types.Object // the error result of the acquisition, if any
}

// openRes maps resource keys ("lock:e.mu" or "var:<def pos>") to their
// acquisition. The may-analysis union keeps a resource open if any
// incoming path left it open.
type openRes map[string]resAcq

func cloneOpen(o openRes) openRes {
	out := make(openRes, len(o))
	for k, v := range o {
		out[k] = v
	}
	return out
}

func runDeferClose(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncResources(pass, fd.Body)
			checkFuncBlocking(pass, fd.Body)
		}
		// Function literals run the same checks on their own CFGs.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkFuncResources(pass, lit.Body)
				checkFuncBlocking(pass, lit.Body)
			}
			return true
		})
	}
}

// resProblem is the forward may-open-resource analysis.
type resProblem struct{ pass *Pass }

func (p resProblem) Boundary() openRes { return make(openRes) }

func (p resProblem) Transfer(b *Block, in openRes) openRes {
	out := in
	for _, n := range b.Nodes {
		out = applyResOps(p.pass, n, out)
	}
	return out
}

func (p resProblem) Merge(a, b openRes) openRes {
	out := cloneOpen(a)
	for k, vb := range b {
		if va, ok := out[k]; !ok || vb.Pos < va.Pos {
			out[k] = vb
		}
	}
	return out
}

func (p resProblem) Equal(a, b openRes) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va.Pos != vb.Pos {
			return false
		}
	}
	return true
}

// applyResOps folds one CFG node into the open-resource fact.
func applyResOps(pass *Pass, n ast.Node, in openRes) openRes {
	out := in
	// Clone lazily, on the first mutation of this node.
	mutate := func() {
		if sameMap(out, in) {
			out = cloneOpen(out)
		}
	}

	// A defer releases at registration for this discipline: every path
	// from here to exit runs it. Any resource or lock the deferred call
	// mentions is considered released.
	if d, ok := n.(*ast.DeferStmt); ok {
		ast.Inspect(d, func(m ast.Node) bool {
			if recv, kind, ok := mutexOp(pass.Pkg, m); ok && (kind == "Unlock" || kind == "RUnlock") {
				ref := resolveLockRef(pass.Pkg, recv)
				if _, held := out["lock:"+ref.Instance]; held {
					mutate()
					delete(out, "lock:"+ref.Instance)
				}
			}
			if id, ok := m.(*ast.Ident); ok {
				if key, tracked := trackedKeyOf(pass, out, id); tracked {
					mutate()
					delete(out, key)
				}
			}
			return true
		})
		return out
	}

	walkNodeOps(n, func(m ast.Node) {
		// Mutex acquire/release.
		if recv, kind, ok := mutexOp(pass.Pkg, m); ok {
			ref := resolveLockRef(pass.Pkg, recv)
			key := "lock:" + ref.Instance
			switch kind {
			case "Lock", "RLock":
				if _, held := out[key]; !held {
					mutate()
					rel := "Unlock"
					if kind == "RLock" {
						rel = "RUnlock"
					}
					out[key] = resAcq{Pos: m.Pos(), What: ref.Instance + " (" + kind + ")", Release: rel}
				}
			case "Unlock", "RUnlock":
				if _, held := out[key]; held {
					mutate()
					delete(out, key)
				}
			}
			return
		}
		// Release methods: x.Close(), x.Stop(), resp.Body.Close().
		if call, ok := m.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Close", "Stop":
					if id := rootIdent(sel.X); id != nil {
						if key, tracked := trackedKeyOf(pass, out, id); tracked {
							mutate()
							delete(out, key)
							return
						}
					}
				}
			}
		}
	})

	// Acquisitions: `x, err := acquire(...)` / `x := acquire(...)`.
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if what, release, ok := resourceAcquisition(pass, call); ok {
				var obj, errObj types.Object
				if len(as.Lhs) > 0 {
					obj = lhsObj(pass, as.Lhs[0])
				}
				if len(as.Lhs) > 1 {
					errObj = lhsObj(pass, as.Lhs[1])
				}
				if obj != nil {
					mutate()
					out["var:"+obj.Name()+posKey(obj.Pos())] = resAcq{
						Pos: call.Pos(), What: what, Release: release, Obj: obj, ErrObj: errObj,
					}
				}
			}
		}
	}

	// Escape / ownership transfer: a remaining *bare* mention of a
	// tracked variable hands it to someone else (a call argument, a
	// return value, a store), and returning the acquisition's error
	// value is the path where the resource was never valid. Both kill
	// the obligation. Selector-rooted uses (t.C, resp.StatusCode) only
	// read through the resource and keep it tracked.
	protected := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		if sel, ok := m.(*ast.SelectorExpr); ok {
			if id := rootIdent(sel.X); id != nil {
				protected[id] = true
			}
		}
		return true
	})
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, isLit := m.(*ast.FuncLit); isLit {
			// A closure capturing the resource takes over its lifetime.
			for _, obj := range capturedIn(pass, lit) {
				if key, tracked := trackedObjKey(out, obj); tracked {
					mutate()
					delete(out, key)
				}
			}
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		for key, acq := range out {
			if acq.Obj == obj && m.Pos() > acq.Pos && !protected[id] {
				mutate()
				delete(out, key)
			} else if acq.ErrObj != nil && acq.ErrObj == obj && isReturn(n) {
				mutate()
				delete(out, key)
			}
		}
		return true
	})
	return out
}

func sameMap(a, b openRes) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func isReturn(n ast.Node) bool {
	_, ok := n.(*ast.ReturnStmt)
	return ok
}

func posKey(p token.Pos) string {
	return "@" + strconv.Itoa(int(p)) // unique per definition site
}

// rootIdent walks selector chains to their base identifier: resp in
// resp.Body, t in t.C.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		default:
			return nil
		}
	}
}

func lhsObj(pass *Pass, x ast.Expr) types.Object {
	id, ok := x.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Pkg.Info.Uses[id]
}

// trackedKeyOf resolves an identifier use to a tracked resource key.
func trackedKeyOf(pass *Pass, open openRes, id *ast.Ident) (string, bool) {
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil {
		return "", false
	}
	return trackedObjKey(open, obj)
}

func trackedObjKey(open openRes, obj types.Object) (string, bool) {
	for key, acq := range open {
		if acq.Obj == obj {
			return key, true
		}
	}
	return "", false
}

// capturedIn lists the objects a function literal references.
func capturedIn(pass *Pass, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := pass.Pkg.Info.Uses[id]; obj != nil {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// resourceAcquisition recognizes calls that hand back a resource with a
// release obligation.
func resourceAcquisition(pass *Pass, call *ast.CallExpr) (what, release string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	if pkgPath := importPathOf(pass.Pkg, sel.X); pkgPath != "" {
		switch {
		case pkgPath == "time" && (sel.Sel.Name == "NewTicker" || sel.Sel.Name == "NewTimer"):
			return "time." + sel.Sel.Name, "Stop", true
		case pkgPath == "os" && (sel.Sel.Name == "Open" || sel.Sel.Name == "Create" || sel.Sel.Name == "OpenFile"):
			return "os." + sel.Sel.Name, "Close", true
		case pkgPath == "net/http" && (sel.Sel.Name == "Get" || sel.Sel.Name == "Post" ||
			sel.Sel.Name == "Head" || sel.Sel.Name == "PostForm"):
			return "http." + sel.Sel.Name + " response body", "Body.Close", true
		}
		return "", "", false
	}
	// client.Do / client.Get …: method on *http.Client.
	if selection, okSel := pass.Pkg.Info.Selections[sel]; okSel {
		if fn, okFn := selection.Obj().(*types.Func); okFn && fn.Pkg() != nil {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if named := namedStructOf(recv.Type()); named != nil &&
					fn.Pkg().Path() == "net/http" && named.Obj().Name() == "Client" {
					return "http.Client." + fn.Name() + " response body", "Body.Close", true
				}
			}
		}
	}
	return "", "", false
}

// checkFuncResources reports resources still open on some path reaching
// the function exit.
func checkFuncResources(pass *Pass, body *ast.BlockStmt) {
	cfg := NewCFG(body)
	sol := Solve[openRes](cfg, resProblem{pass: pass}, Forward)

	// Walk exit predecessors: each carries the facts of the paths that
	// end there. Report once per resource, at the acquisition.
	type leak struct {
		acq   resAcq
		retAt token.Pos
	}
	leaks := make(map[string]leak)
	for _, pred := range cfg.Exit.Preds {
		fact, ok := sol.Out[pred]
		if !ok {
			continue
		}
		at := blockEndPos(pred)
		for key, acq := range fact {
			if old, seen := leaks[key]; !seen || at < old.retAt {
				leaks[key] = leak{acq: acq, retAt: at}
			}
		}
	}
	keys := make([]string, 0, len(leaks))
	for k := range leaks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return leaks[keys[i]].acq.Pos < leaks[keys[j]].acq.Pos })
	for _, k := range keys {
		l := leaks[k]
		where := "the function returns"
		if l.retAt != token.NoPos {
			where = "the return at " + shortPos(pass.Pkg.Fset, l.retAt)
		}
		pass.Reportf(l.acq.Pos,
			"%s acquired here is not released on every path: %s without %s — release it or defer the release at acquisition (//harmony:allow deferclose <reason> to permit)",
			l.acq.What, where, l.acq.Release)
	}
}

// blockEndPos is the position of the block's last node (the return, for
// return blocks).
func blockEndPos(blk *Block) token.Pos {
	if len(blk.Nodes) > 0 {
		return blk.Nodes[len(blk.Nodes)-1].Pos()
	}
	if blk.Term != nil {
		return blk.Term.Pos()
	}
	return token.NoPos
}

// checkFuncBlocking reports blocking operations while a mutex is held.
// Locks released only by defer stay held to the exit — exactly the
// semantics the held-span lockset implements.
func checkFuncBlocking(pass *Pass, body *ast.BlockStmt) {
	cfg := NewCFG(body)
	sol := solveLocksets(pass.Pkg, cfg, false, nil)
	for _, blk := range cfg.Blocks {
		in, ok := sol.In[blk]
		if !ok {
			continue
		}
		blk := blk
		walkLockOps(pass.Pkg, blk, in, func(n ast.Node, held heldLocks) {
			if len(held) == 0 || n == blk.Comm {
				return
			}
			if what, ok := blockingNode(pass, n); ok {
				reportBlocked(pass, n.Pos(), what, held)
			}
		})
		// The terminator blocks too: a select without default, a range
		// over a channel.
		out, ok := sol.Out[blk]
		if !ok || len(out) == 0 {
			continue
		}
		switch t := blk.Term.(type) {
		case *ast.SelectStmt:
			if !selectHasDefault(t) {
				reportBlocked(pass, t.Pos(), "select", out)
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Pkg.Info.Types[t.X]; ok && isChanType(tv.Type) {
				reportBlocked(pass, t.Pos(), "range over channel", out)
			}
		}
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingNode recognizes blocking operations inside one CFG node.
func blockingNode(pass *Pass, n ast.Node) (string, bool) {
	found := ""
	walkNodeOps(n, func(m ast.Node) {
		if found != "" {
			return
		}
		switch v := m.(type) {
		case *ast.SendStmt:
			found = "channel send"
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = "channel receive"
			}
		case *ast.CallExpr:
			if what, ok := blockingOp(pass.Pkg, v); ok {
				found = what
			}
		}
	})
	return found, found != ""
}

func reportBlocked(pass *Pass, pos token.Pos, what string, held heldLocks) {
	hs := sortedHeld(held)
	h := hs[0]
	pass.Reportf(pos,
		"blocking %s while holding %s (acquired at %s): a blocked lock holder stalls every reader of the control plane (//harmony:allow deferclose <reason> to permit)",
		what, describeLock(h.Ref), shortPos(pass.Pkg.Fset, h.Pos))
}
