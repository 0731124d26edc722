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
// marks it as reusable scratch) is owned by exactly one attempt at a
// time and lives on that attempt's stack or config, or in a holder
// the attempt's owner keeps there. A named struct that holds a
// workspace, such as core.Scratch or an mlpart.Session, counts as one.
// Retaining one in a package-level variable — directly, behind a
// pointer, inside a container or inside a holder — turns per-attempt
// scratch into shared mutable state: two concurrent starts would
// overwrite each other's buffers, and the corruption shows up far away
// as a wrong cut or a partition that fails the oracle recount. The
// rule applies to every package, cmd/ and examples/ included.
//
// The one sanctioned package-level holder is a sync.Pool, whose type
// reaches no workspace: between Get and Put a bundle has exactly one
// owner, and an idle one belongs to nobody.
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

// holdsWorkspace reports whether t is a workspace type or can reach
// one through containers (pointer, slice, array, map, channel) and
// struct fields, so indirect retention like `var pool []*fm.Workspace`
// or `var s *core.Scratch` is caught too. seen breaks cycles: every
// recursive type goes through a named one.
func holdsWorkspace(t types.Type, seen map[*types.Named]bool) bool {
	switch u := t.(type) {
	case *types.Named:
		if seen[u] {
			return false
		}
		seen[u] = true
		if _, ok := u.Underlying().(*types.Struct); ok && isWorkspaceName(u.Obj().Name()) {
			return true
		}
		return holdsWorkspace(u.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsWorkspace(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Pointer:
		return holdsWorkspace(u.Elem(), seen)
	case *types.Slice:
		return holdsWorkspace(u.Elem(), seen)
	case *types.Array:
		return holdsWorkspace(u.Elem(), seen)
	case *types.Map:
		return holdsWorkspace(u.Elem(), seen)
	case *types.Chan:
		return holdsWorkspace(u.Elem(), seen)
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
					if !ok || !holdsWorkspace(v.Type(), map[*types.Named]bool{}) {
						continue
					}
					pass.Report(name, check,
						"package-level workspace is shared mutable scratch",
						"keep workspaces on the attempt's stack or thread them through a config field (Config.WS, Config.Scratch); share idle bundles through a sync.Pool; a global breaks per-start isolation")
				}
			}
		}
	}
}
