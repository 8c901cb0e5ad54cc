package engine

import (
	"fmt"
	"strings"
)

// Export variables and the Inspector (Fig 3): "Several export
// variables are created to allow these variables be dynamically
// edited without having to edit the script as a whole." Props is a
// typed, ordered property bag; Inspector renders it the way Godot's
// Inspector tab lists exported properties.

// Props is an ordered set of named exported values.
type Props struct {
	order  []string
	values map[string]any
}

// NewProps returns an empty property bag.
func NewProps() *Props {
	return &Props{values: make(map[string]any)}
}

// Export declares a property with its default value (Godot's
// @export). Re-exporting an existing name just overwrites the value.
func (p *Props) Export(name string, value any) {
	if _, exists := p.values[name]; !exists {
		p.order = append(p.order, name)
	}
	p.values[name] = value
}

// Has reports whether the property exists.
func (p *Props) Has(name string) bool {
	_, ok := p.values[name]
	return ok
}

// Set assigns an existing property, enforcing that the new value
// keeps the declared type (the Inspector edits values, not types).
func (p *Props) Set(name string, value any) error {
	old, ok := p.values[name]
	if !ok {
		return fmt.Errorf("engine: no exported property %q", name)
	}
	if old != nil && value != nil && fmt.Sprintf("%T", old) != fmt.Sprintf("%T", value) {
		return fmt.Errorf("engine: property %q is %T, cannot assign %T", name, old, value)
	}
	p.values[name] = value
	return nil
}

// Get returns a property value; ok=false when absent.
func (p *Props) Get(name string) (any, bool) {
	v, ok := p.values[name]
	return v, ok
}

// GetBool returns a bool property, or the fallback when absent or of
// another type.
func (p *Props) GetBool(name string, fallback bool) bool {
	if v, ok := p.values[name].(bool); ok {
		return v
	}
	return fallback
}

// GetInt returns an int property, or the fallback.
func (p *Props) GetInt(name string, fallback int) int {
	if v, ok := p.values[name].(int); ok {
		return v
	}
	return fallback
}

// GetString returns a string property, or the fallback.
func (p *Props) GetString(name, fallback string) string {
	if v, ok := p.values[name].(string); ok {
		return v
	}
	return fallback
}

// GetNode returns a node-reference property, or nil: the engine's
// version of @export var y_axis : Node3D assigned in the Inspector.
func (p *Props) GetNode(name string) *Node {
	if v, ok := p.values[name].(*Node); ok {
		return v
	}
	return nil
}

// Names returns the property names in declaration order.
func (p *Props) Names() []string {
	out := make([]string, len(p.order))
	copy(out, p.order)
	return out
}

// Len returns the number of exported properties.
func (p *Props) Len() int { return len(p.order) }

// Inspector renders the node's exported properties like Godot's
// Inspector tab (Fig 3): one "name: value" row per property in
// declaration order, with node references shown by path.
func Inspector(n *Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Inspector — %s (%s)\n", n.Name(), n.Kind())
	for _, name := range n.Props().Names() {
		v, _ := n.Props().Get(name)
		fmt.Fprintf(&b, "  %-22s %s\n", display(name), formatValue(v))
	}
	return b.String()
}

// display converts a snake_case property name to the Title Case the
// Godot Inspector shows ("pallets_are_colored" → "Pallets Are
// Colored").
func display(name string) string {
	words := strings.Split(name, "_")
	for i, w := range words {
		if w == "" {
			continue
		}
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}

// formatValue renders a property value for the Inspector.
func formatValue(v any) string {
	switch val := v.(type) {
	case nil:
		return "<empty>"
	case *Node:
		if val == nil {
			return "<empty>"
		}
		return val.Path()
	case string:
		return fmt.Sprintf("%q", val)
	case bool:
		if val {
			return "On"
		}
		return "Off"
	default:
		return fmt.Sprint(val)
	}
}
