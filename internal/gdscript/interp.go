package gdscript

import (
	"fmt"
	"strings"

	"repro/internal/engine"
)

// Instance is a script bound to a scene node (the node may be nil
// for standalone scripts). Script-level variables live in the
// instance; @export variables are backed by the node's property bag
// so the Inspector and the script observe the same state, exactly as
// in Godot.
type Instance struct {
	script  *Script
	node    *engine.Node
	globals map[string]Value
	exports map[string]bool

	// Stdout and Stderr collect print/printerr output.
	Stdout strings.Builder
	Stderr strings.Builder

	// steps guards against runaway scripts; MaxSteps bounds total
	// statement executions per Instance.
	steps    int
	MaxSteps int
}

// NewInstance binds a parsed script to a node and evaluates the
// plain (non-@onready) variable initializers, mirroring load-time
// evaluation.
func NewInstance(script *Script, node *engine.Node) (*Instance, error) {
	in := &Instance{
		script:   script,
		node:     node,
		globals:  make(map[string]Value),
		exports:  make(map[string]bool),
		MaxSteps: 1_000_000,
	}
	for _, decl := range script.Vars {
		if decl.OnReady {
			// Placeholder until Ready.
			in.globals[decl.Name] = nil
			continue
		}
		var v Value
		if decl.Init != nil {
			var err error
			v, err = in.eval(decl.Init, nil)
			if err != nil {
				return nil, err
			}
		}
		if decl.Export && node != nil {
			in.exports[decl.Name] = true
			if !node.Props().Has(decl.Name) {
				node.Props().Export(decl.Name, ToGo(v))
			}
			continue
		}
		in.globals[decl.Name] = v
	}
	return in, nil
}

// Ready evaluates @onready initializers and then runs _ready when
// defined: the engine's enter-tree sequence.
func (in *Instance) Ready() error {
	for _, decl := range in.script.Vars {
		if !decl.OnReady {
			continue
		}
		var v Value
		if decl.Init != nil {
			var err error
			v, err = in.eval(decl.Init, nil)
			if err != nil {
				return fmt.Errorf("gdscript: @onready %s: %w", decl.Name, err)
			}
		}
		in.globals[decl.Name] = v
	}
	if _, ok := in.script.Funcs["_ready"]; ok {
		_, err := in.Call("_ready")
		return err
	}
	return nil
}

// HasFunc reports whether the script defines a function.
func (in *Instance) HasFunc(name string) bool {
	_, ok := in.script.Funcs[name]
	return ok
}

// Call invokes a script function by name.
func (in *Instance) Call(name string, args ...Value) (Value, error) {
	fn, ok := in.script.Funcs[name]
	if !ok {
		return nil, fmt.Errorf("gdscript: no function %q", name)
	}
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("gdscript: %s takes %d args, got %d", name, len(fn.Params), len(args))
	}
	locals := newScope(nil)
	for i, p := range fn.Params {
		locals.define(p, args[i])
	}
	err := in.execBlock(fn.Body, locals)
	if ret, ok := err.(returnSignal); ok {
		return ret.value, nil
	}
	return nil, err
}

// Behavior adapts the instance to engine.Behavior so scripts attach
// to nodes like GDScript files attach in Godot.
type Behavior struct {
	// Instance is the bound script instance.
	Instance *Instance
	// Err records the first lifecycle error (engine callbacks
	// cannot return one).
	Err error
}

// AttachScript parses source, binds it to the node, and attaches it
// as the node's behavior. The caller inspects Behavior.Err after the
// tree starts.
func AttachScript(node *engine.Node, src string) (*Behavior, error) {
	script, err := Parse(src)
	if err != nil {
		return nil, err
	}
	inst, err := NewInstance(script, node)
	if err != nil {
		return nil, err
	}
	b := &Behavior{Instance: inst}
	node.SetBehavior(b)
	return b, nil
}

// Ready implements engine.Behavior.
func (b *Behavior) Ready(*engine.Node) {
	if err := b.Instance.Ready(); err != nil && b.Err == nil {
		b.Err = err
	}
}

// Process implements engine.Behavior, calling _process(delta) when
// defined.
func (b *Behavior) Process(_ *engine.Node, dt float64) {
	if !b.Instance.HasFunc("_process") {
		return
	}
	if _, err := b.Instance.Call("_process", dt); err != nil && b.Err == nil {
		b.Err = err
	}
}

// scope is a chained local-variable environment.
type scope struct {
	vars   map[string]Value
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{vars: make(map[string]Value), parent: parent}
}

func (s *scope) define(name string, v Value) { s.vars[name] = v }

func (s *scope) lookup(name string) (Value, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (s *scope) assign(name string, v Value) bool {
	for cur := s; cur != nil; cur = cur.parent {
		if _, ok := cur.vars[name]; ok {
			cur.vars[name] = v
			return true
		}
	}
	return false
}

// Control-flow signals travel as error values.
type returnSignal struct{ value Value }
type breakSignal struct{}
type continueSignal struct{}

func (returnSignal) Error() string   { return "return outside function" }
func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }

// execBlock runs statements in a fresh child scope.
func (in *Instance) execBlock(stmts []Stmt, parent *scope) error {
	sc := newScope(parent)
	for _, st := range stmts {
		if err := in.exec(st, sc); err != nil {
			return err
		}
	}
	return nil
}

// exec runs one statement.
func (in *Instance) exec(st Stmt, sc *scope) error {
	in.steps++
	if in.steps > in.MaxSteps {
		return fmt.Errorf("gdscript: execution exceeded %d steps", in.MaxSteps)
	}
	switch s := st.(type) {
	case *ExprStmt:
		_, err := in.eval(s.X, sc)
		return err
	case *LocalVarStmt:
		var v Value
		if s.Decl.Init != nil {
			var err error
			v, err = in.eval(s.Decl.Init, sc)
			if err != nil {
				return err
			}
		}
		sc.define(s.Decl.Name, v)
		return nil
	case *AssignStmt:
		return in.execAssign(s, sc)
	case *IfStmt:
		cond, err := in.eval(s.Cond, sc)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			return in.execBlock(s.Body, sc)
		}
		for _, elif := range s.Elifs {
			c, err := in.eval(elif.Cond, sc)
			if err != nil {
				return err
			}
			if Truthy(c) {
				return in.execBlock(elif.Body, sc)
			}
		}
		if s.Else != nil {
			return in.execBlock(s.Else, sc)
		}
		return nil
	case *ForStmt:
		seq, err := in.eval(s.Seq, sc)
		if err != nil {
			return err
		}
		items, err := iterate(seq, s.Line)
		if err != nil {
			return err
		}
		for _, item := range items {
			loop := newScope(sc)
			loop.define(s.Var, item)
			err := in.execBlock(s.Body, loop)
			switch err.(type) {
			case nil, continueSignal:
				continue
			case breakSignal:
				return nil
			default:
				return err
			}
		}
		return nil
	case *WhileStmt:
		for {
			cond, err := in.eval(s.Cond, sc)
			if err != nil {
				return err
			}
			if !Truthy(cond) {
				return nil
			}
			err = in.execBlock(s.Body, sc)
			switch err.(type) {
			case nil, continueSignal:
				continue
			case breakSignal:
				return nil
			default:
				return err
			}
		}
	case *MatchStmt:
		subject, err := in.eval(s.Subject, sc)
		if err != nil {
			return err
		}
		for _, c := range s.Cases {
			if c.Wildcard {
				return in.execBlock(c.Body, sc)
			}
			pat, err := in.eval(c.Pattern, sc)
			if err != nil {
				return err
			}
			if Equal(subject, pat) {
				return in.execBlock(c.Body, sc)
			}
		}
		return nil
	case *ReturnStmt:
		var v Value
		if s.Value != nil {
			var err error
			v, err = in.eval(s.Value, sc)
			if err != nil {
				return err
			}
		}
		return returnSignal{value: v}
	case *PassStmt:
		return nil
	case *BreakStmt:
		return breakSignal{}
	case *ContinueStmt:
		return continueSignal{}
	default:
		return fmt.Errorf("gdscript: unknown statement %T", st)
	}
}

// iterate expands a for-loop sequence.
func iterate(seq Value, line int) ([]Value, error) {
	switch s := seq.(type) {
	case *Array:
		out := make([]Value, len(s.Items))
		copy(out, s.Items)
		return out, nil
	case *Dict:
		var out []Value
		for _, k := range s.Keys() {
			out = append(out, k)
		}
		return out, nil
	case string:
		var out []Value
		for _, r := range s {
			out = append(out, string(r))
		}
		return out, nil
	case int64:
		var out []Value
		for i := int64(0); i < s; i++ {
			out = append(out, i)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("gdscript: line %d: cannot iterate %s", line, TypeName(seq))
	}
}

// execAssign handles =, +=, -=, *=, /= on identifiers, attributes,
// and indexes.
func (in *Instance) execAssign(s *AssignStmt, sc *scope) error {
	var value Value
	rhs, err := in.eval(s.Value, sc)
	if err != nil {
		return err
	}
	if s.Op == "=" {
		value = rhs
	} else {
		current, err := in.eval(s.Target, sc)
		if err != nil {
			return err
		}
		value, err = binaryOp(strings.TrimSuffix(s.Op, "="), current, rhs, s.Line)
		if err != nil {
			return err
		}
	}
	switch target := s.Target.(type) {
	case *Ident:
		return in.assignName(target.Name, value, sc, s.Line)
	case *AttrExpr:
		obj, err := in.eval(target.X, sc)
		if err != nil {
			return err
		}
		return in.setAttr(obj, target.Name, value, s.Line)
	case *IndexExpr:
		obj, err := in.eval(target.X, sc)
		if err != nil {
			return err
		}
		idx, err := in.eval(target.Index, sc)
		if err != nil {
			return err
		}
		return setIndex(obj, idx, value, s.Line)
	default:
		return fmt.Errorf("gdscript: line %d: invalid assignment target", s.Line)
	}
}

// assignName writes a variable through local scope, export props,
// then instance globals.
func (in *Instance) assignName(name string, v Value, sc *scope, line int) error {
	if sc != nil && sc.assign(name, v) {
		return nil
	}
	if in.exports[name] && in.node != nil {
		return in.node.Props().Set(name, ToGo(v))
	}
	if _, ok := in.globals[name]; ok {
		in.globals[name] = v
		return nil
	}
	return fmt.Errorf("gdscript: line %d: assignment to undeclared variable %q", line, name)
}

// setAttr assigns obj.name.
func (in *Instance) setAttr(obj Value, name string, v Value, line int) error {
	node, ok := obj.(*NodeRef)
	if !ok {
		return fmt.Errorf("gdscript: line %d: cannot set attribute %q on %s", line, name, TypeName(obj))
	}
	if node.Node.Props().Has(name) {
		return node.Node.Props().Set(name, ToGo(v))
	}
	node.Node.Data[name] = ToGo(v)
	return nil
}

// setIndex assigns obj[idx].
func setIndex(obj, idx, v Value, line int) error {
	switch o := obj.(type) {
	case *Array:
		i, ok := idx.(int64)
		if !ok {
			return fmt.Errorf("gdscript: line %d: array index must be int, got %s", line, TypeName(idx))
		}
		if i < 0 || int(i) >= len(o.Items) {
			return fmt.Errorf("gdscript: line %d: array index %d out of range %d", line, i, len(o.Items))
		}
		o.Items[i] = v
		return nil
	case *Dict:
		k, ok := idx.(string)
		if !ok {
			return fmt.Errorf("gdscript: line %d: dictionary key must be String, got %s", line, TypeName(idx))
		}
		o.Set(k, v)
		return nil
	default:
		return fmt.Errorf("gdscript: line %d: cannot index-assign %s", line, TypeName(obj))
	}
}
