// Package game implements Traffic Warehouse itself: the warehouse
// levels built as engine scene trees, the pallet/label controller
// ported line-for-line from the paper's GDScript, the 2D/3D views
// with spacebar toggle and Q/E rotation, box placement, the built-in
// training level, and sequential lesson play with multiple-choice
// questions.
package game

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// Material resource paths. The first five match the paper's preloads
// verbatim; the last three implement its "expanding the range of
// colors and materials" future-work item.
const (
	MaterialDefault = "res://Assets/Objects/pallet_material.tres"
	MaterialRed     = "res://Assets/Objects/pallet_material_r.tres"
	MaterialBlue    = "res://Assets/Objects/pallet_material_b.tres"
	MaterialGrey    = "res://Assets/Objects/pallet_material_g.tres"
	MaterialBlack   = "res://Assets/Objects/pallet_material_black.tres"
	MaterialGreen   = "res://Assets/Objects/pallet_material_green.tres"
	MaterialYellow  = "res://Assets/Objects/pallet_material_yellow.tres"
	MaterialPurple  = "res://Assets/Objects/pallet_material_purple.tres"
)

// CodeBlack is the sentinel CodeForMaterial reports for the black
// fallback material; CodeUncolored for the default wood.
const (
	CodeBlack     = -2
	CodeUncolored = -1
)

// MaterialForCode maps a module color code to its material resource:
// the Go rendering of the paper's match statement in
// change_pallet_color, extended with the green/yellow/purple range
// (codes 3–5). The paper's original GDScript predates the extension
// and renders those codes black; the equivalence tests compare the
// two only over the paper's 0–2 range plus the shared fallback.
func MaterialForCode(code int) string {
	switch code {
	case 0:
		return MaterialGrey
	case 1:
		return MaterialBlue
	case 2:
		return MaterialRed
	case 3:
		return MaterialGreen
	case 4:
		return MaterialYellow
	case 5:
		return MaterialPurple
	default:
		return MaterialBlack
	}
}

// CodeForMaterial inverts MaterialForCode; the renderer uses it to
// read pallet colors back out of the scene. The default material
// reports CodeUncolored and black reports CodeBlack so neither
// collides with a real color code.
func CodeForMaterial(material string) int {
	switch material {
	case MaterialGrey:
		return 0
	case MaterialBlue:
		return 1
	case MaterialRed:
		return 2
	case MaterialGreen:
		return 3
	case MaterialYellow:
		return 4
	case MaterialPurple:
		return 5
	case MaterialBlack:
		return CodeBlack
	default:
		return CodeUncolored
	}
}

// Scene node names, matching Fig 2.
const (
	NodeData       = "Data"
	NodeController = "Pallet and label controller"
	NodeXAxis      = "X"
	NodeYAxis      = "Y"
	NodePallets    = "Pallets"
	NodeBoxes      = "Boxes"
	NodeCamera     = "Camera3D"
	NodeUI         = "UI"
)

// BuildLevelScene constructs the scene tree of a standard level for
// one learning module, mirroring Fig 2: a Data node holding the
// parsed module dictionary, the pallet/label controller with its
// exported node references, X and Y axis nodes with one label child
// per axis entry (Fig 4), a Pallets node with n×n pallet children
// (each with a mesh child carrying material_override), an empty
// Boxes node, a camera, and a UI node.
//
// The returned tree has NOT been started; callers wrap it in an
// engine.SceneTree and Start it, which runs the controller's _ready.
func BuildLevelScene(m *core.Module) (*engine.Node, error) {
	if issues := m.Validate(); !issues.OK() {
		return nil, fmt.Errorf("game: module %q is invalid:\n%s", m.Name, issues.Errs())
	}
	n, err := m.Dim()
	if err != nil {
		return nil, err
	}

	root := engine.NewNode("Node3D", levelRootName(m))

	data := engine.NewNode("Node3D", NodeData)
	// Godot "can natively read in a JSON file and store it as a
	// dictionary"; Data carries that dictionary.
	data.Data["module"] = m
	data.Data["axis_labels"] = append([]string(nil), m.AxisLabels...)
	data.Data["traffic_matrix"] = m.TrafficMatrix
	data.Data["traffic_matrix_colors"] = m.TrafficMatrixColors
	root.AddChild(data)

	controller := engine.NewNode("Node3D", NodeController)
	root.AddChild(controller)

	makeAxis := func(name, prefix string) *engine.Node {
		axis := engine.NewNode("Node3D", name)
		for i := 0; i < n; i++ {
			label := engine.NewNode("Node3D", fmt.Sprintf("%sLabel%d", prefix, i+1))
			// Child 0: the plinth mesh. Child 1: the Label3D text —
			// the paper's scripts address it as get_child(1).
			mesh := engine.NewNode("MeshInstance3D", "Plinth")
			text := engine.NewNode("Label3D", "Text")
			text.Props().Export("text", "")
			label.AddChild(mesh)
			label.AddChild(text)
			axis.AddChild(label)
		}
		return axis
	}
	xAxis := makeAxis(NodeXAxis, "X")
	yAxis := makeAxis(NodeYAxis, "Y")
	root.AddChild(xAxis)
	root.AddChild(yAxis)

	pallets := engine.NewNode("Node3D", NodePallets)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pallet := engine.NewNode("Node3D", fmt.Sprintf("Pallet_%d_%d", i, j))
			mesh := engine.NewNode("MeshInstance3D", "PalletMesh")
			mesh.Props().Export("material_override", MaterialDefault)
			pallet.AddChild(mesh)
			pallet.AddToGroup("pallets")
			pallets.AddChild(pallet)
		}
	}
	root.AddChild(pallets)

	boxes := engine.NewNode("Node3D", NodeBoxes)
	root.AddChild(boxes)

	camera := engine.NewNode("Camera3D", NodeCamera)
	camera.Props().Export("mode_3d", false)
	camera.Props().Export("rotation_steps", 0)
	root.AddChild(camera)

	ui := engine.NewNode("Control", NodeUI)
	ui.Props().Export("question_visible", false)
	root.AddChild(ui)

	// Attach the controller script with its export variables
	// assigned "using the Inspector tab" (Fig 3).
	controller.Props().Export("y_axis", yAxis)
	controller.Props().Export("x_axis", xAxis)
	controller.Props().Export("pallets", pallets)
	controller.Props().Export("pallets_are_colored", false)
	controller.SetBehavior(&PalletLabelController{})

	return root, nil
}

// levelRootName derives the root node name from the module, falling
// back to "Level".
func levelRootName(m *core.Module) string {
	if m.Name == TrainingModuleName {
		return "TrainingLevel"
	}
	return "Level"
}

// AxisLabelTexts reads back the label texts of an axis node, in
// order: the proof that set_labels reached the scene.
func AxisLabelTexts(axis *engine.Node) []string {
	out := make([]string, 0, axis.ChildCount())
	for _, label := range axis.Children() {
		text := label.MustChild(1)
		out = append(out, text.Props().GetString("text", ""))
	}
	return out
}
