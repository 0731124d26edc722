package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WorkspaceRetain enforces the workspace-ownership contract of the
// allocation-free hot paths: a workspace (coarsen.Workspace,
// fm.Workspace, hypergraph.InduceWorkspace, core's pipelineWS and
// its hierarchy store hierarchyWorkspace — any named struct whose name
// marks it as reusable scratch) is owned by
// exactly one attempt and lives on that attempt's stack or config.
// Retaining one in a package-level variable — directly, behind a
// pointer, or inside a container — turns per-attempt scratch into
// shared mutable state: two concurrent starts would overwrite each
// other's buffers, and the corruption shows up far away as a wrong
// cut or a partition that fails the oracle recount. The rule applies
// to every package, cmd/ and examples/ included.
type WorkspaceRetain struct{}

// Name implements Check.
func (WorkspaceRetain) Name() string { return "workspace-retain" }

// Doc implements Check.
func (WorkspaceRetain) Doc() string {
	return "workspaces are per-attempt scratch: never retained in a package-level variable"
}

// isWorkspaceName reports whether a type name marks reusable scratch.
func isWorkspaceName(name string) bool {
	return strings.HasSuffix(name, "Workspace") || name == "pipelineWS"
}

// holdsWorkspace reports whether t is a workspace type or a container
// that can reach one (pointer, slice, array, map, channel), so
// indirect retention like `var pool []*fm.Workspace` is caught too.
func holdsWorkspace(t types.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	switch u := t.(type) {
	case *types.Named:
		if isWorkspaceName(u.Obj().Name()) {
			if _, ok := u.Underlying().(*types.Struct); ok {
				return true
			}
		}
		return false
	case *types.Pointer:
		return holdsWorkspace(u.Elem(), depth+1)
	case *types.Slice:
		return holdsWorkspace(u.Elem(), depth+1)
	case *types.Array:
		return holdsWorkspace(u.Elem(), depth+1)
	case *types.Map:
		return holdsWorkspace(u.Elem(), depth+1)
	case *types.Chan:
		return holdsWorkspace(u.Elem(), depth+1)
	}
	return false
}

// Run implements Check.
func (WorkspaceRetain) Run(pass *Pass) {
	check := WorkspaceRetain{}.Name()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					v, ok := pass.Info.Defs[name].(*types.Var)
					if !ok || !holdsWorkspace(v.Type(), 0) {
						continue
					}
					pass.Report(name, check,
						"package-level workspace is shared mutable scratch",
						"keep workspaces on the attempt's stack (pipelineWS per attempt) or thread them through a Config.WS field; a global breaks per-start isolation")
				}
			}
		}
	}
}
