// Golden case for the workspace-retain check: workspace-named struct
// types retained at package level — directly, behind a pointer, inside
// a container or inside a struct that holds one — must be flagged;
// locals, parameters, struct fields, sync.Pool and non-workspace
// globals stay clean.
package workspaceretain

import (
	"sync"

	"mlpart/internal/core"
)

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

// Scratch mirrors core.Scratch: a named struct holding a workspace is
// a holder, retained exactly like the workspace it holds.
type Scratch struct {
	ws   pipelineWS
	seed int64
}

var sharedScratch Scratch // want "package-level workspace is shared mutable scratch"

var coreScratch *core.Scratch // want "package-level workspace is shared mutable scratch"

// session holds a holder: still a workspace two levels down.
type session struct{ scratch *core.Scratch }

var defaultSession = &session{} // want "package-level workspace is shared mutable scratch"

// A recursive holder terminates.
type node struct {
	next *node
	ws   *Workspace
}

var list node // want "package-level workspace is shared mutable scratch"

// The sanctioned holder: a bundle in a sync.Pool has one owner
// between Get and Put.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// A recursive type that reaches no workspace stays clean.
type chain struct{ next *chain }

var head chain
