// Package engine is the Godot substitute: a scene-tree micro-engine
// with named, typed nodes, parent/child trees, Godot-style node
// paths ("../Data"), groups, signals (reached through GDScript's
// emit_signal), export-variable property bags with an Inspector, and
// the _ready/_process lifecycle driven by a fixed-timestep loop.
//
// The paper's implementation section is entirely scene-tree
// mechanics — a controller script attached to a node resolves
// "$../Data", reads exported variables, and repaints pallet children
// — and the game package reproduces those interactions on this
// engine one-for-one.
package engine

import (
	"fmt"
	"strings"
)

// Behavior is the script attached to a node: the Go analogue of a
// GDScript file. Ready runs when the node enters the scene tree
// (Godot's _ready); Process runs every frame (Godot's _process).
type Behavior interface {
	Ready(n *Node)
	Process(n *Node, dt float64)
}

// BehaviorFuncs adapts plain functions to Behavior; either may be
// nil.
type BehaviorFuncs struct {
	OnReady   func(n *Node)
	OnProcess func(n *Node, dt float64)
}

// Ready implements Behavior.
func (b BehaviorFuncs) Ready(n *Node) {
	if b.OnReady != nil {
		b.OnReady(n)
	}
}

// Process implements Behavior.
func (b BehaviorFuncs) Process(n *Node, dt float64) {
	if b.OnProcess != nil {
		b.OnProcess(n, dt)
	}
}

// Node is the smallest component of a scene: "In Godot a node is the
// smallest component that can be modified and used to build a
// scene."
type Node struct {
	name     string
	kind     string
	parent   *Node
	children []*Node
	behavior Behavior
	props    *Props
	signals  map[string][]SignalHandler
	groups   map[string]bool
	tree     *SceneTree
	readied  bool
	// Data carries arbitrary attached values, playing the role of
	// Godot's per-node script variables (the paper's "Data" node
	// stores the parsed JSON dictionary this way).
	Data map[string]any
}

// NewNode creates a detached node of the given kind ("Node3D",
// "Label3D", …) and name.
func NewNode(kind, name string) *Node {
	if name == "" || strings.ContainsAny(name, "/") {
		panic(fmt.Sprintf("engine: invalid node name %q", name))
	}
	return &Node{
		name:   name,
		kind:   kind,
		props:  NewProps(),
		groups: make(map[string]bool),
		Data:   make(map[string]any),
	}
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Kind returns the node's type label.
func (n *Node) Kind() string { return n.kind }

// Parent returns the node's parent, or nil at the root.
func (n *Node) Parent() *Node { return n.parent }

// Props returns the node's export-variable bag.
func (n *Node) Props() *Props { return n.props }

// SetBehavior attaches a script. Attaching after the node has
// entered the tree runs Ready immediately, as Godot does when a
// script is hot-attached.
func (n *Node) SetBehavior(b Behavior) {
	n.behavior = b
	if n.readied && b != nil {
		b.Ready(n)
	}
}

// AddChild appends child to n. It panics when the child already has
// a parent or the name collides with an existing child, matching
// Godot's unique-sibling-name rule. If n is inside a started tree
// the child's subtree becomes ready immediately.
func (n *Node) AddChild(child *Node) {
	if child.parent != nil {
		panic(fmt.Sprintf("engine: node %q already has parent %q", child.name, child.parent.name))
	}
	if child == n {
		panic("engine: node cannot be its own child")
	}
	for _, existing := range n.children {
		if existing.name == child.name {
			panic(fmt.Sprintf("engine: node %q already has a child named %q", n.name, child.name))
		}
	}
	child.parent = n
	n.children = append(n.children, child)
	child.setTree(n.tree)
	if n.tree != nil && n.tree.started {
		child.readyWalk()
	}
}

// setTree propagates tree membership through a subtree.
func (n *Node) setTree(t *SceneTree) {
	n.tree = t
	for _, c := range n.children {
		c.setTree(t)
	}
}

// RemoveChild detaches child from n (Godot's queue_free +
// remove_child, immediate). It returns false when child is not a
// child of n.
func (n *Node) RemoveChild(child *Node) bool {
	for i, c := range n.children {
		if c == child {
			n.children = append(n.children[:i], n.children[i+1:]...)
			child.parent = nil
			child.setTree(nil)
			return true
		}
	}
	return false
}

// Children returns the node's children in order: the engine call the
// paper's controller uses to collect "a list of all the child
// pallets".
func (n *Node) Children() []*Node {
	out := make([]*Node, len(n.children))
	copy(out, n.children)
	return out
}

// ChildCount returns the number of children.
func (n *Node) ChildCount() int { return len(n.children) }

// Child returns the i-th child; the paper's scripts index children
// positionally (get_child(0), get_child(1)).
func (n *Node) Child(i int) (*Node, error) {
	if i < 0 || i >= len(n.children) {
		return nil, fmt.Errorf("engine: node %q has no child %d (has %d)", n.name, i, len(n.children))
	}
	return n.children[i], nil
}

// MustChild is Child but panics; for scene construction code.
func (n *Node) MustChild(i int) *Node {
	c, err := n.Child(i)
	if err != nil {
		panic(err)
	}
	return c
}

// Root walks to the top of the tree.
func (n *Node) Root() *Node {
	cur := n
	for cur.parent != nil {
		cur = cur.parent
	}
	return cur
}

// Path returns the absolute slash-separated path from the root, e.g.
// "/TrainingLevel/PalletAndLabelController".
func (n *Node) Path() string {
	if n.parent == nil {
		return "/" + n.name
	}
	return n.parent.Path() + "/" + n.name
}

// GetNode resolves a Godot-style node path relative to n: path
// segments are child names, ".." climbs to the parent, "." stays,
// and a leading "/" restarts from the root. The paper's controller
// uses exactly this to find its Data sibling: GetNode("../Data").
func (n *Node) GetNode(path string) (*Node, error) {
	cur := n
	rest := path
	if strings.HasPrefix(path, "/") {
		cur = n.Root()
		rest = strings.TrimPrefix(path, "/")
		// An absolute path names the root itself first.
		if rest == cur.name {
			return cur, nil
		}
		rest = strings.TrimPrefix(rest, cur.name+"/")
	}
	if rest == "" {
		return cur, nil
	}
	for _, seg := range strings.Split(rest, "/") {
		switch seg {
		case "", ".":
			continue
		case "..":
			if cur.parent == nil {
				return nil, fmt.Errorf("engine: path %q climbs above the root", path)
			}
			cur = cur.parent
		default:
			var next *Node
			for _, c := range cur.children {
				if c.name == seg {
					next = c
					break
				}
			}
			if next == nil {
				return nil, fmt.Errorf("engine: node %q has no child %q (path %q)", cur.name, seg, path)
			}
			cur = next
		}
	}
	return cur, nil
}

// MustGetNode is GetNode but panics; for scene construction code
// where a missing node is a programming error.
func (n *Node) MustGetNode(path string) *Node {
	node, err := n.GetNode(path)
	if err != nil {
		panic(err)
	}
	return node
}

// FindByName searches the subtree (depth-first, n included) for the
// first node with the given name.
func (n *Node) FindByName(name string) *Node {
	if n.name == name {
		return n
	}
	for _, c := range n.children {
		if found := c.FindByName(name); found != nil {
			return found
		}
	}
	return nil
}

// Walk visits the subtree depth-first, parents before children,
// stopping when fn returns false.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.children {
		c.Walk(fn)
	}
}

// AddToGroup tags the node with a Godot-style group name.
func (n *Node) AddToGroup(group string) { n.groups[group] = true }

// IsInGroup reports whether the node carries the tag.
func (n *Node) IsInGroup(group string) bool { return n.groups[group] }

// readyWalk runs Ready depth-first, children before parents, once
// per node — Godot's _ready ordering.
func (n *Node) readyWalk() {
	for _, c := range n.children {
		c.readyWalk()
	}
	if !n.readied {
		n.readied = true
		if n.behavior != nil {
			n.behavior.Ready(n)
		}
	}
}

// processWalk runs Process in tree order (parents before children).
func (n *Node) processWalk(dt float64) {
	if n.behavior != nil {
		n.behavior.Process(n, dt)
	}
	for _, c := range n.children {
		c.processWalk(dt)
	}
}

// TreeString renders the subtree like Godot's scene dock (Fig 2):
//
//	○ TrainingLevel (Node3D)
//	├─ ○ Data (Node3D)
//	└─ ○ Pallets (Node3D)
func (n *Node) TreeString() string {
	var b strings.Builder
	n.writeTree(&b, "", true, true)
	return b.String()
}

func (n *Node) writeTree(b *strings.Builder, prefix string, isLast, isRoot bool) {
	if isRoot {
		fmt.Fprintf(b, "○ %s (%s)\n", n.name, n.kind)
	} else {
		connector := "├─"
		if isLast {
			connector = "└─"
		}
		fmt.Fprintf(b, "%s%s ○ %s (%s)\n", prefix, connector, n.name, n.kind)
	}
	childPrefix := prefix
	if !isRoot {
		if isLast {
			childPrefix += "   "
		} else {
			childPrefix += "│  "
		}
	}
	for i, c := range n.children {
		c.writeTree(b, childPrefix, i == len(n.children)-1, false)
	}
}
