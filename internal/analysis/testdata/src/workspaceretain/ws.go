// Golden case for the workspace-retain check: workspace-named struct
// types retained at package level — directly, behind a pointer, or
// inside a container — must be flagged; locals, parameters, struct
// fields and non-workspace globals stay clean.
package workspaceretain

type Workspace struct{ buf []int32 }

type InduceWorkspace struct{ heads []int32 }

type pipelineWS struct{ match Workspace }

// Workspacer is an interface, not scratch: not flagged even though
// the name ends in Workspace.
type Workspacer interface{ Reset() }

var sharedWS Workspace // want "package-level workspace is shared mutable scratch"

var sharedPtr *InduceWorkspace // want "package-level workspace is shared mutable scratch"

var wsPool []*Workspace // want "package-level workspace is shared mutable scratch"

var wsByName map[string]*pipelineWS // want "package-level workspace is shared mutable scratch"

var wsFeed chan Workspace // want "package-level workspace is shared mutable scratch"

var one, two Workspace // want "package-level workspace is shared mutable scratch" "package-level workspace is shared mutable scratch"

// hierarchyWorkspace mirrors core's hierarchy store: the coarse levels
// an attempt builds, overwritten by the next attempt on the bundle.
type hierarchyWorkspace struct{ slots []*levelSlot }

type levelSlot struct{ fixed []bool }

var levelStore hierarchyWorkspace // want "package-level workspace is shared mutable scratch"

var iface Workspacer

var count int

func attempt() int {
	// Locals are the intended ownership: one workspace per attempt.
	ws := &pipelineWS{}
	var induce InduceWorkspace
	induce.heads = append(induce.heads, 1)
	return len(ws.match.buf) + len(induce.heads) + count
}

type attemptState struct {
	// A workspace field inside a non-global struct is fine — the
	// struct's owner decides the lifetime.
	ws Workspace
}

func (s *attemptState) run(scratch *Workspace) { s.ws = *scratch }
