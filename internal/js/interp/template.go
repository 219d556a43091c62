package interp

import (
	"fmt"
	"sort"
	"strings"
)

// Template is a pristine realm frozen for copying: the object graph a
// standard-library install leaves behind, captured once per process and
// never executed. New hands every execution its own copy — a few slab
// allocations and pointer fix-ups computed at freeze time — instead of
// re-running the installers. A copy is indistinguishable from the realm
// it was frozen from (DescribeRealm renders both identically): lazy
// installers, method tables and shapes are realm-independent and shared,
// while objects, slots and lazy entries are the copy's own, so nothing a
// program does to its copy reaches the template or another copy.
//
// Only the layout a fresh install produces is supported: shape-mode
// objects whose own state is slots, a prototype link, native function
// slots, primitive wrappers, lazy entries and method tables. Freeze
// panics on anything else (dictionary-mode objects, arrays, closures,
// bound functions), since copying it would share backing arrays.
type Template struct {
	realm *Interp
	// objs are the template's objects in walk order, the global object
	// first; every per-object table below is indexed by that position.
	objs  []*Object
	proto []int32 // prototype position, -1 for none
	// vals and lazies concatenate the objects' slots and lazy entries in
	// object order.
	vals   []Value
	lazies []lazyProp
	// refs are the positions in vals holding an object reference, with
	// the referenced object's position: a copy's only slot fix-ups.
	refs          []slotRef
	protos, ctors []namedObj
}

type slotRef struct{ at, obj int32 }

type namedObj struct {
	name string
	obj  int32
}

// Freeze captures in — a realm the standard library was just installed
// into, never executed — as a template. in must not be used afterwards:
// the template reads its objects on every New.
func Freeze(in *Interp) *Template {
	objs, pos := realmObjects(in)
	t := &Template{realm: in, objs: objs, proto: make([]int32, len(objs))}
	for i, o := range objs {
		checkCopyable(in, o)
		t.proto[i] = -1
		if o.Proto != nil {
			t.proto[i] = pos[o.Proto]
		}
		for _, v := range o.slots {
			if v.kind == KindObject {
				t.refs = append(t.refs, slotRef{int32(len(t.vals)), pos[v.obj]})
			}
			t.vals = append(t.vals, v)
		}
		t.lazies = append(t.lazies, o.lazy...)
	}
	for _, k := range sortedNames(in.Protos) {
		t.protos = append(t.protos, namedObj{k, pos[in.Protos[k]]})
	}
	for _, k := range sortedNames(in.Ctors) {
		t.ctors = append(t.ctors, namedObj{k, pos[in.Ctors[k]]})
	}
	return t
}

// checkCopyable panics unless o holds only state New knows how to copy.
func checkCopyable(in *Interp, o *Object) {
	ok := o.shape != nil && o.props == nil && o.keys == nil &&
		o.elems == nil && o.Fn == nil && o.BoundTarget == nil && o.BoundArgs == nil &&
		o.BoundThis.kind != KindObject && o.Prim.kind != KindObject &&
		o.Regex == nil && o.Buf == nil && o.Invocations == 0 && o.lazyInstalling == 0 &&
		(o.realm == nil || o.realm == in)
	if !ok {
		panic(fmt.Sprintf("interp: %s object %q cannot be part of a realm template", o.Class, o.NativeName))
	}
}

// New returns a copy of the template's realm, with the per-run fields
// set from cfg exactly as interp.New sets them. Templates are shape-mode
// realms, so cfg must not ask for DisableShapes.
func (t *Template) New(cfg Config) *Interp {
	if cfg.DisableShapes {
		panic("interp: a realm template cannot serve a DisableShapes realm")
	}
	in := configured(cfg)
	objs := make([]Object, len(t.objs))
	vals := make([]Value, len(t.vals))
	copy(vals, t.vals)
	lazies := make([]lazyProp, len(t.lazies))
	copy(lazies, t.lazies)
	var nv, nl int
	for i, src := range t.objs {
		o := &objs[i]
		*o = *src
		if p := t.proto[i]; p >= 0 {
			o.Proto = &objs[p]
		}
		// Full slice expressions: an append on a copy's slots or lazy
		// entries reallocates instead of overwriting its slab neighbour.
		o.slots, o.lazy = nil, nil
		if n := len(src.slots); n > 0 {
			o.slots = vals[nv : nv+n : nv+n]
			nv += n
		}
		if n := len(src.lazy); n > 0 {
			o.lazy = lazies[nl : nl+n : nl+n]
			nl += n
		}
		if o.realm != nil {
			o.realm = in
		}
	}
	for _, r := range t.refs {
		vals[r.at].obj = &objs[r.obj]
	}
	in.Global = &objs[0]
	for _, e := range t.protos {
		in.Protos[e.name] = &objs[e.obj]
	}
	for _, e := range t.ctors {
		in.Ctors[e.name] = &objs[e.obj]
	}
	in.ProtoMiss = t.realm.ProtoMiss
	return in
}

// Describe renders the template's realm as DescribeRealm does.
func (t *Template) Describe() string { return DescribeRealm(t.realm) }

// realmObjects lists the objects reachable from the realm's global object
// and prototype and constructor tables, breadth first from the global
// object, then the tables in key order, following prototype links and
// property values. pos maps each object to its position.
func realmObjects(in *Interp) (objs []*Object, pos map[*Object]int32) {
	pos = map[*Object]int32{}
	add := func(o *Object) {
		if o == nil {
			return
		}
		if _, ok := pos[o]; !ok {
			pos[o] = int32(len(objs))
			objs = append(objs, o)
		}
	}
	add(in.Global)
	for _, k := range sortedNames(in.Protos) {
		add(in.Protos[k])
	}
	for _, k := range sortedNames(in.Ctors) {
		add(in.Ctors[k])
	}
	for i := 0; i < len(objs); i++ {
		o := objs[i]
		add(o.Proto)
		add(o.BoundTarget)
		for _, v := range o.slots {
			add(v.obj)
		}
		for _, k := range o.keys {
			if p := o.props[k]; p != nil {
				add(p.Value.obj)
				add(p.Get)
				add(p.Set)
			}
		}
	}
	return objs, pos
}

func sortedNames(m map[string]*Object) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// DescribeRealm renders a realm's object graph canonically, without
// materialising anything: per object in realmObjects order its class,
// prototype position, layout (shape keys with attributes and slot values,
// or dictionary properties), pending lazy entries, attached method table,
// native-function slots and invocation count, plus the prototype and
// constructor tables. Object references render as positions and shared
// process-global state (lazy installers, method tables) by identity, so
// two realms render equal exactly when they are copies of each other.
func DescribeRealm(in *Interp) string {
	objs, pos := realmObjects(in)
	var b strings.Builder
	ref := func(o *Object) string {
		if o == nil {
			return "nil"
		}
		return fmt.Sprintf("#%d", pos[o])
	}
	val := func(v Value) string {
		switch v.kind {
		case KindObject:
			return ref(v.obj)
		case kindPending:
			return "<pending>"
		}
		return fmt.Sprintf("%s:%v:%v:%q", v.kind, v.b, v.num, v.str)
	}
	for _, k := range sortedNames(in.Protos) {
		fmt.Fprintf(&b, "proto %s=%s\n", k, ref(in.Protos[k]))
	}
	for _, k := range sortedNames(in.Ctors) {
		fmt.Fprintf(&b, "ctor %s=%s\n", k, ref(in.Ctors[k]))
	}
	fmt.Fprintf(&b, "protomiss=%v\n", in.ProtoMiss != nil)
	for i, o := range objs {
		fmt.Fprintf(&b, "#%d %s proto=%s ext=%v epoch=%d native=%q call=%v construct=%v invocations=%d prim=%v:%s marks=%v%v%v realm=%v\n",
			i, o.Class, ref(o.Proto), o.Extensible, o.epoch, o.NativeName, o.Native != nil, o.Construct != nil,
			o.Invocations, o.HasPrim, val(o.Prim), o.frozen, o.strictMarked, o.indexProps, o.realm == in)
		if o.shape != nil {
			for n, k := range o.shape.keyChain() {
				sp := o.shape.find(k)
				fmt.Fprintf(&b, "  slot %d %s attr=%d = %s\n", n, k, sp.attr, val(o.slots[n]))
			}
		}
		for _, k := range o.keys {
			p := o.props[k]
			if p == nil {
				fmt.Fprintf(&b, "  prop %s <pending>\n", k)
				continue
			}
			fmt.Fprintf(&b, "  prop %s attr=%d accessor=%v get=%s set=%s = %s\n",
				k, p.Attr, p.Accessor, ref(p.Get), ref(p.Set), val(p.Value))
		}
		for _, l := range o.lazy {
			fmt.Fprintf(&b, "  lazy %s %p\n", l.key, l.install)
		}
		if o.lazyTab != nil {
			fmt.Fprintf(&b, "  table %p pending=%x\n", o.lazyTab, o.tabPending)
		}
	}
	return b.String()
}
