package engine

import (
	"strings"
	"testing"
)

func TestNodeTreeBasics(t *testing.T) {
	root := NewNode("Node3D", "Root")
	a := NewNode("Node3D", "A")
	b := NewNode("Label3D", "B")
	root.AddChild(a)
	a.AddChild(b)

	if b.Parent() != a || a.Parent() != root || root.Parent() != nil {
		t.Error("parent links wrong")
	}
	if b.Root() != root {
		t.Error("Root() wrong")
	}
	if got := b.Path(); got != "/Root/A/B" {
		t.Errorf("Path = %q", got)
	}
	if root.ChildCount() != 1 || len(root.Children()) != 1 {
		t.Error("child count wrong")
	}
	if b.Kind() != "Label3D" {
		t.Error("kind wrong")
	}
}

func TestAddChildRejectsDuplicateNames(t *testing.T) {
	root := NewNode("Node3D", "Root")
	root.AddChild(NewNode("Node3D", "X"))
	defer func() {
		if recover() == nil {
			t.Error("duplicate sibling name accepted")
		}
	}()
	root.AddChild(NewNode("Node3D", "X"))
}

func TestAddChildRejectsReparent(t *testing.T) {
	root := NewNode("Node3D", "Root")
	child := NewNode("Node3D", "C")
	root.AddChild(child)
	other := NewNode("Node3D", "Other")
	defer func() {
		if recover() == nil {
			t.Error("re-parenting without removal accepted")
		}
	}()
	other.AddChild(child)
}

func TestAddChildRejectsSelf(t *testing.T) {
	n := NewNode("Node3D", "N")
	defer func() {
		if recover() == nil {
			t.Error("self-child accepted")
		}
	}()
	n.AddChild(n)
}

func TestNewNodeRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "a/b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", name)
				}
			}()
			NewNode("Node3D", name)
		}()
	}
}

func TestRemoveChild(t *testing.T) {
	root := NewNode("Node3D", "Root")
	child := NewNode("Node3D", "C")
	root.AddChild(child)
	if !root.RemoveChild(child) {
		t.Fatal("RemoveChild failed")
	}
	if child.Parent() != nil || root.ChildCount() != 0 {
		t.Error("detach incomplete")
	}
	if root.RemoveChild(child) {
		t.Error("double remove succeeded")
	}
	// A removed child can join another parent.
	other := NewNode("Node3D", "Other")
	other.AddChild(child)
	if child.Parent() != other {
		t.Error("reattach failed")
	}
}

func TestChildIndexing(t *testing.T) {
	root := NewNode("Node3D", "Root")
	for _, n := range []string{"A", "B", "C"} {
		root.AddChild(NewNode("Node3D", n))
	}
	c, err := root.Child(1)
	if err != nil || c.Name() != "B" {
		t.Errorf("Child(1) = %v, %v", c, err)
	}
	if _, err := root.Child(5); err == nil {
		t.Error("out-of-range child accepted")
	}
	if _, err := root.Child(-1); err == nil {
		t.Error("negative child accepted")
	}
}

// TestGetNodePaths covers the paper's "$\"../Data\"" resolution and
// friends.
func TestGetNodePaths(t *testing.T) {
	root := NewNode("Node3D", "Level")
	data := NewNode("Node3D", "Data")
	controller := NewNode("Node3D", "Controller")
	pallets := NewNode("Node3D", "Pallets")
	root.AddChild(data)
	root.AddChild(controller)
	root.AddChild(pallets)

	cases := []struct {
		from *Node
		path string
		want *Node
	}{
		{controller, "../Data", data},
		{controller, "..", root},
		{root, "Data", data},
		{root, "./Data", data},
		{data, "../Controller", controller},
		{data, "/Level/Pallets", pallets},
		{pallets, "/Level", root},
		{controller, ".", controller},
	}
	for _, c := range cases {
		got, err := c.from.GetNode(c.path)
		if err != nil || got != c.want {
			t.Errorf("GetNode(%q from %s) = %v, %v", c.path, c.from.Name(), got, err)
		}
	}

	if _, err := controller.GetNode("../Missing"); err == nil {
		t.Error("missing node resolved")
	}
	if _, err := root.GetNode("../.."); err == nil {
		t.Error("climb above root resolved")
	}
}

func TestFindByNameAndWalk(t *testing.T) {
	root := NewNode("Node3D", "Root")
	mid := NewNode("Node3D", "Mid")
	leaf := NewNode("Node3D", "Leaf")
	root.AddChild(mid)
	mid.AddChild(leaf)
	if root.FindByName("Leaf") != leaf {
		t.Error("FindByName failed")
	}
	if root.FindByName("Nope") != nil {
		t.Error("FindByName invented a node")
	}
	var visited []string
	root.Walk(func(n *Node) bool {
		visited = append(visited, n.Name())
		return n.Name() != "Mid" // prune below Mid
	})
	if strings.Join(visited, ",") != "Root,Mid" {
		t.Errorf("Walk visited %v", visited)
	}
}

func TestGroups(t *testing.T) {
	n := NewNode("Node3D", "N")
	n.AddToGroup("pallets")
	n.AddToGroup("all")
	if !n.IsInGroup("pallets") || n.IsInGroup("boxes") {
		t.Error("group membership wrong")
	}
}

func TestSignals(t *testing.T) {
	n := NewNode("Node3D", "Button")
	var log []string
	n.Connect("pressed", func(from *Node, args ...any) {
		log = append(log, from.Name())
	})
	n.Connect("pressed", func(from *Node, args ...any) {
		if len(args) == 1 {
			log = append(log, args[0].(string))
		}
	})
	if got := n.Emit("pressed", "arg"); got != 2 {
		t.Errorf("Emit ran %d handlers", got)
	}
	if strings.Join(log, ",") != "Button,arg" {
		t.Errorf("handler order/args wrong: %v", log)
	}
	if n.Emit("unknown") != 0 {
		t.Error("unknown signal ran handlers")
	}
}

func TestSignalHandlerMayMutateConnections(t *testing.T) {
	n := NewNode("Node3D", "N")
	var fired int
	n.Connect("s", func(from *Node, args ...any) {
		fired++
		n.Connect("s", func(*Node, ...any) { fired += 100 })
	})
	// The newly added handler must not run during this emission.
	if n.Emit("s") != 1 || fired != 1 {
		t.Errorf("mutation during emit mishandled: fired=%d", fired)
	}
}

func TestPropsExportSetGet(t *testing.T) {
	p := NewProps()
	p.Export("count", 3)
	p.Export("label", "hi")
	p.Export("on", true)
	if !p.Has("count") || p.Has("missing") {
		t.Error("Has wrong")
	}
	if p.GetInt("count", -1) != 3 || p.GetString("label", "") != "hi" || !p.GetBool("on", false) {
		t.Error("typed getters wrong")
	}
	if err := p.Set("count", 5); err != nil || p.GetInt("count", -1) != 5 {
		t.Error("Set failed")
	}
	if err := p.Set("count", "nope"); err == nil {
		t.Error("type change accepted")
	}
	if err := p.Set("missing", 1); err == nil {
		t.Error("set of unexported property accepted")
	}
	if got := p.Names(); strings.Join(got, ",") != "count,label,on" {
		t.Errorf("Names order = %v", got)
	}
	if p.Len() != 3 {
		t.Error("Len wrong")
	}
}

func TestPropsFallbacks(t *testing.T) {
	p := NewProps()
	p.Export("n", 1)
	if p.GetBool("n", true) != true {
		t.Error("wrong-type GetBool should return fallback")
	}
	if p.GetString("n", "fb") != "fb" {
		t.Error("wrong-type GetString should return fallback")
	}
	if p.GetNode("n") != nil {
		t.Error("wrong-type GetNode should return nil")
	}
}

func TestInspectorRendering(t *testing.T) {
	n := NewNode("Node3D", "Pallet and label controller")
	target := NewNode("Node3D", "Y")
	root := NewNode("Node3D", "Root")
	root.AddChild(n)
	root.AddChild(target)
	n.Props().Export("y_axis", target)
	n.Props().Export("pallets_are_colored", false)
	n.Props().Export("title", "hello")
	out := Inspector(n)
	for _, want := range []string{"Y Axis", "/Root/Y", "Pallets Are Colored", "Off", `"hello"`} {
		if !strings.Contains(out, want) {
			t.Errorf("Inspector missing %q:\n%s", want, out)
		}
	}
}

func TestLifecycleReadyOrder(t *testing.T) {
	var order []string
	behavior := func(name string) Behavior {
		return BehaviorFuncs{OnReady: func(*Node) { order = append(order, name) }}
	}
	root := NewNode("Node3D", "Root")
	child := NewNode("Node3D", "Child")
	leaf := NewNode("Node3D", "Leaf")
	root.SetBehavior(behavior("root"))
	child.SetBehavior(behavior("child"))
	leaf.SetBehavior(behavior("leaf"))
	root.AddChild(child)
	child.AddChild(leaf)

	tree := NewSceneTree(root)
	tree.Start()
	// Children ready before parents (Godot's order).
	if strings.Join(order, ",") != "leaf,child,root" {
		t.Errorf("ready order = %v", order)
	}
	// Start is idempotent.
	order = nil
	tree.Start()
	if len(order) != 0 {
		t.Error("second Start re-ran ready")
	}
}

func TestLateAddGetsReady(t *testing.T) {
	root := NewNode("Node3D", "Root")
	tree := NewSceneTree(root)
	tree.Start()
	fired := false
	late := NewNode("Node3D", "Late")
	late.SetBehavior(BehaviorFuncs{OnReady: func(*Node) { fired = true }})
	root.AddChild(late)
	if !fired {
		t.Error("late-added node never readied")
	}
}

func TestSetBehaviorAfterReadyRunsImmediately(t *testing.T) {
	root := NewNode("Node3D", "Root")
	NewSceneTree(root).Start()
	fired := false
	root.SetBehavior(BehaviorFuncs{OnReady: func(*Node) { fired = true }})
	if !fired {
		t.Error("hot-attached behavior not readied")
	}
}

func TestProcessOrderAndTiming(t *testing.T) {
	var order []string
	mk := func(name string) Behavior {
		return BehaviorFuncs{OnProcess: func(_ *Node, dt float64) {
			order = append(order, name)
			if dt != 0.5 {
				t.Errorf("dt = %f", dt)
			}
		}}
	}
	root := NewNode("Node3D", "Root")
	child := NewNode("Node3D", "Child")
	root.SetBehavior(mk("root"))
	child.SetBehavior(mk("child"))
	root.AddChild(child)
	tree := NewSceneTree(root)
	tree.Run(2, 0.5)
	// Parents process before children, two frames.
	if strings.Join(order, ",") != "root,child,root,child" {
		t.Errorf("process order = %v", order)
	}
	if tree.Elapsed() != 1.0 {
		t.Errorf("elapsed = %f", tree.Elapsed())
	}
}

func TestStepStartsTree(t *testing.T) {
	fired := false
	root := NewNode("Node3D", "Root")
	root.SetBehavior(BehaviorFuncs{OnReady: func(*Node) { fired = true }})
	tree := NewSceneTree(root)
	tree.Step(0.1)
	if !fired {
		t.Error("Step did not start the tree")
	}
}

func TestTreeString(t *testing.T) {
	root := NewNode("Node3D", "TrainingLevel")
	root.AddChild(NewNode("Node3D", "Data"))
	pallets := NewNode("Node3D", "Pallets")
	pallets.AddChild(NewNode("Node3D", "Pallet_0_0"))
	root.AddChild(pallets)
	out := root.TreeString()
	for _, want := range []string{"○ TrainingLevel (Node3D)", "├─ ○ Data", "└─ ○ Pallets", "   └─ ○ Pallet_0_0"} {
		if !strings.Contains(out, want) {
			t.Errorf("TreeString missing %q:\n%s", want, out)
		}
	}
}

func TestSceneTreeRejectsBadRoot(t *testing.T) {
	parent := NewNode("Node3D", "P")
	child := NewNode("Node3D", "C")
	parent.AddChild(child)
	defer func() {
		if recover() == nil {
			t.Error("parented root accepted")
		}
	}()
	NewSceneTree(child)
}

func TestNodeDataMap(t *testing.T) {
	n := NewNode("Node3D", "Data")
	n.Data["traffic_matrix"] = [][]int{{1}}
	if _, ok := n.Data["traffic_matrix"]; !ok {
		t.Error("Data map not usable")
	}
}
