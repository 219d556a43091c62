// Package builtins installs the ECMAScript standard library into an
// interpreter instance: Object, Function, Array, String, Number, Boolean,
// Math, JSON, RegExp, Date, the Error hierarchy, typed arrays, DataView,
// eval and the global functions. Every builtin carries a canonical spec key
// (e.g. "String.prototype.substr") through which engine defects intercept it
// and the dedup tree classifies bug reports.
package builtins

import (
	"sync"

	"comfort/internal/js/interp"
)

// NewRuntime creates an interpreter with the full standard library. A
// shape-mode config gets a copy of the process's realm template; a
// DisableShapes config gets a fresh Install (the template is a shape-mode
// realm, and fresh construction stays the reference the copy is checked
// against).
func NewRuntime(cfg interp.Config) *interp.Interp {
	if cfg.DisableShapes {
		in := interp.New(cfg)
		Install(in)
		return in
	}
	templateOnce.Do(buildTemplate)
	return realmTemplate.New(cfg)
}

// The realm template: one fresh shape-mode Install per process, frozen
// before anything runs in it. One template serves every behaviour class,
// because installing reads no Config field but DisableShapes — defect
// configuration (Config's MutableFuncName and SloppyStrictAssign, the
// hook) is consulted at run time, on the copy.
var (
	templateOnce  sync.Once
	realmTemplate *interp.Template
)

func buildTemplate() {
	in := interp.New(interp.Config{})
	Install(in)
	realmTemplate = interp.Freeze(in)
}

// Native-method tables: the first Install runs a capture pass on a
// throwaway interpreter, recording every r.method registration into a
// frozen, realm-independent interp.NativeTable per receiver object (the
// method implementations only ever touch the interpreter passed at call
// time, never the realm that registered them — the receiver parameter
// shadows the installer's). Every later install attaches the frozen table
// instead of re-registering each method, and realm copies share it.
var (
	tableOnce sync.Once
	// methodTables maps a method's canonical spec key to the frozen table
	// of its receiver object.
	methodTables map[string]*interp.NativeTable
)

func captureTables() {
	cap := &registry{
		in:        interp.New(interp.Config{}),
		capturing: map[*interp.Object]*interp.NativeTable{},
		captured:  map[string]*interp.NativeTable{},
	}
	installAll(cap)
	methodTables = cap.captured
}

// Install wires the standard library into in. It is idempotent per
// interpreter.
//
// Sections reachable only through a global binding (Math, JSON, Date and
// the typed-array family) are installed lazily on first access to any of
// their globals: realm construction is on the campaign scheduler's hottest
// path, and most generated programs touch none of them. Everything a
// literal or primitive can reach (Object/Function/Array/String/Number/
// Boolean/RegExp prototypes, the Error hierarchy, the global functions)
// stays eager.
func Install(in *interp.Interp) {
	tableOnce.Do(captureTables)
	r := &registry{in: in}
	installAll(r)
}

// installAll wires every stdlib section through the given registry (a
// normal realm, or the one-time table-capture pass).
func installAll(r *registry) {
	in := r.in

	// Bootstrap Object.prototype and Function.prototype first: everything
	// else hangs off them.
	objProto := in.NewObject(nil)
	in.Protos["Object"] = objProto
	fnProto := in.NewObject(objProto)
	fnProto.Class = "Function"
	in.Protos["Function"] = fnProto

	installObject(r)
	installFunction(r)
	// The Error hierarchy is deferred like the operator sections below;
	// unlike them it is also reachable from inside the interpreter (every
	// Throwf needs the error prototypes for classification), so the
	// interpreter's prototype-miss hook forces it too — per kind, so a
	// throwing realm installs just the base plus the kind it raised.
	for _, s := range errorSections {
		r.lazy(s)
	}
	in.ProtoMiss = errorProtoMiss
	installArray(r)
	installString(r)
	installNumber(r)
	installBoolean(r)
	installRegExp(r)
	installGlobals(r)

	r.lazy(mathSection)
	r.lazy(jsonSection)
	r.lazy(dateSection)
	r.lazy(typedArraySection)
}

// section is a stdlib section deferred until any of its global names is
// touched; it installs at most once per realm. Its Lazy is built once per
// process and takes the realm as an argument, so every realm — and every
// copy of the realm template — shares it.
type section struct {
	names   []string
	install func(*registry)
	lazy    interp.Lazy
}

func newSection(install func(*registry), names ...string) *section {
	return &section{names: names, install: install, lazy: interp.Lazy{
		Install: func(in *interp.Interp) { install(&registry{in: in}) },
	}}
}

var (
	mathSection       = newSection(installMath, "Math")
	jsonSection       = newSection(installJSON, "JSON")
	dateSection       = newSection(installDate, "Date")
	typedArraySection = newSection(installTypedArrays,
		"ArrayBuffer",
		"Int8Array", "Uint8Array", "Uint8ClampedArray",
		"Int16Array", "Uint16Array",
		"Int32Array", "Uint32Array",
		"Float32Array", "Float64Array",
		"DataView")
)

// lazy registers section s on the realm's global object. The capture pass
// installs immediately — its realm must register every method table.
func (r *registry) lazy(s *section) {
	if r.capturing != nil {
		s.install(r)
		return
	}
	for _, n := range s.names {
		r.in.Global.SetLazy(r.in, n, &s.lazy)
	}
}

// registry carries shared helpers for the install functions.
type registry struct {
	in *interp.Interp
	// capturing/captured are set only during the one-time table-capture
	// pass: capturing groups entries by receiver object, captured indexes
	// the resulting tables by method spec key.
	capturing map[*interp.Object]*interp.NativeTable
	captured  map[string]*interp.NativeTable
}

// shortName strips the canonical spec key down to its final segment.
func shortName(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}

// fn creates a native function object with the canonical spec key name.
func (r *registry) fn(name string, arity int, f interp.NativeFunc) *interp.Object {
	return interp.NewNativeFunc(r.in.Protos["Function"], name, shortName(name), arity, f)
}

// method attaches a native method to obj under its short name. Function
// objects are built lazily on first access (a generated program touches a
// handful of the library's hundreds of methods); registration itself goes
// through the frozen per-object method tables, so a realm pays one table
// attachment per object instead of one closure + map insert per method.
// Materialisation order remains the registration order, and
// delete/overwrite interactions go through the lazy resolution in Object.
// The capture pass runs every installer, so every registration a realm
// can make is in a table.
func (r *registry) method(obj *interp.Object, name string, arity int, f interp.NativeFunc) {
	short := shortName(name)
	if r.capturing != nil {
		t := r.capturing[obj]
		if t == nil {
			t = &interp.NativeTable{ByName: map[string]uint8{}}
			r.capturing[obj] = t
		}
		if len(t.Entries) >= interp.MaxNativeTableEntries {
			panic("builtins: method table overflow for " + name)
		}
		t.ByName[short] = uint8(len(t.Entries))
		t.Names = append(t.Names, short)
		t.Entries = append(t.Entries, interp.NativeTableEntry{SpecKey: name, Short: short, Arity: arity, Fn: f})
		r.captured[name] = t
		// Install eagerly on the capture realm so intra-install reads see
		// a complete object.
		obj.SetSlot(short, interp.ObjValue(r.fn(name, arity, f)), interp.Writable|interp.Configurable)
		return
	}
	t, ok := methodTables[name]
	if !ok {
		panic("builtins: method " + name + " missing from the captured tables")
	}
	if obj.LazyTable() == nil {
		obj.AttachLazyTable(r.in, t)
	}
}

// global binds a value on the global object.
func (r *registry) global(name string, v interp.Value) {
	r.in.Global.SetSlot(name, v, interp.Writable|interp.Configurable)
}

// globalFnSection defers one native function on the global object,
// building it on first access like method does.
func globalFnSection(name string, arity int, f interp.NativeFunc) *section {
	return newSection(func(r *registry) {
		r.global(name, interp.ObjValue(r.fn(name, arity, f)))
	}, name)
}

// ctor creates a constructor function wired to a prototype object, registers
// both in the realm tables, and exposes the constructor globally.
func (r *registry) ctor(name string, arity int, proto *interp.Object,
	call, construct interp.NativeFunc) *interp.Object {
	c := r.fn(name, arity, call)
	c.Construct = construct
	c.SetSlot("prototype", interp.ObjValue(proto), 0)
	proto.SetSlot("constructor", interp.ObjValue(c), interp.Writable|interp.Configurable)
	r.in.Protos[name] = proto
	r.in.Ctors[name] = c
	r.global(name, interp.ObjValue(c))
	return c
}

// restArgs returns args[i:] or nil when fewer arguments were passed.
func restArgs(args []interp.Value, i int) []interp.Value {
	if i >= len(args) {
		return nil
	}
	return args[i:]
}

// arg returns args[i] or undefined.
func arg(args []interp.Value, i int) interp.Value {
	if i < len(args) {
		return args[i]
	}
	return interp.Undefined()
}

// requireObjectCoercible throws TypeError for null/undefined receivers.
func requireObjectCoercible(in *interp.Interp, v interp.Value, method string) error {
	if v.IsNullish() {
		return in.TypeErrorf("%s called on null or undefined", method)
	}
	return nil
}
