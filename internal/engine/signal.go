package engine

import "fmt"

// Signals are Godot's observer mechanism: a node emits a named
// signal and every connected handler runs. The game reaches them
// through GDScript's emit_signal ("toggle pallet color button … is
// called whenever the toggle pallet color button is clicked").

// SignalHandler receives the emitting node and the emit arguments.
type SignalHandler func(from *Node, args ...any)

// Connect registers a handler for the named signal.
func (n *Node) Connect(signal string, handler SignalHandler) {
	if handler == nil {
		panic(fmt.Sprintf("engine: nil handler for signal %q", signal))
	}
	if n.signals == nil {
		n.signals = make(map[string][]SignalHandler)
	}
	n.signals[signal] = append(n.signals[signal], handler)
}

// Emit fires the named signal, invoking handlers in connection
// order. It returns the number of handlers run.
func (n *Node) Emit(signal string, args ...any) int {
	// range reads the slice once, so a handler that connects while
	// running adds one for the next emission, not this one.
	handlers := n.signals[signal]
	for _, h := range handlers {
		h(n, args...)
	}
	return len(handlers)
}
