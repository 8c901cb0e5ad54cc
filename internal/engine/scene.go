package engine

import (
	"fmt"
)

// SceneTree owns the root node and drives the lifecycle: Start runs
// _ready over the tree (children before parents, Godot's order);
// Step runs one _process frame; Run steps a fixed-timestep loop.
// Headless determinism replaces Godot's real-time loop so the whole
// game runs under go test.
type SceneTree struct {
	root    *Node
	started bool
	elapsed float64
}

// NewSceneTree creates a tree rooted at root.
func NewSceneTree(root *Node) *SceneTree {
	if root == nil {
		panic("engine: nil scene root")
	}
	if root.parent != nil {
		panic(fmt.Sprintf("engine: scene root %q has a parent", root.name))
	}
	t := &SceneTree{root: root}
	root.setTree(t)
	return t
}

// Root returns the tree's root node.
func (t *SceneTree) Root() *Node { return t.root }

// Elapsed returns the total simulated time in seconds.
func (t *SceneTree) Elapsed() float64 { return t.elapsed }

// Start readies the whole tree. Calling it twice is a no-op.
func (t *SceneTree) Start() {
	if t.started {
		return
	}
	t.started = true
	t.root.readyWalk()
}

// Step processes one frame of dt seconds, starting the tree first
// if needed.
func (t *SceneTree) Step(dt float64) {
	if !t.started {
		t.Start()
	}
	t.elapsed += dt
	t.root.processWalk(dt)
}

// Run steps the loop for the given number of frames at a fixed
// timestep.
func (t *SceneTree) Run(frames int, dt float64) {
	for i := 0; i < frames; i++ {
		t.Step(dt)
	}
}
