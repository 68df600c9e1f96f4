package engine

// ObjSlab is engine-owned storage for model objects of type O, what
// OpSlot is for ops: a pooled engine keeps one store per slab and
// rewinds it when the next execution starts, so a program that builds
// the same objects every execution allocates none of them after the
// first. New is the one way an object enters an execution:
//
//	var mutexSlab = engine.NewObjSlab[Mutex]()
//
//	m, id := mutexSlab.New(t)
//	*m = Mutex{base: base{id: id, kind: "mutex", name: name}, owner: tidset.None}
//
// The object still holds what the previous execution left in it: the
// constructor overwrites every field, and may keep its slices' capacity
// if it starts them empty or zeroed. Stores are never moved, so an
// object is valid until the next Pool.Run (see Object).
type ObjSlab[O any, P interface {
	*O
	Object
}] struct{ idx int }

// objSlabs counts the registered slabs. Written during package
// initialization only (NewObjSlab), read-only once executions run.
var objSlabs int

// NewObjSlab registers a slab for objects of type O (P is inferred:
// *O, which must implement Object). Call it from a package-level
// variable initializer, as NewOpSlot.
func NewObjSlab[O any, P interface {
	*O
	Object
}]() ObjSlab[O, P] {
	s := ObjSlab[O, P]{idx: objSlabs}
	objSlabs++
	return s
}

const slabChunk = 16

// slabStore is one engine's store for one slab.
type slabStore struct {
	chunks []any // *[slabChunk]O for the slab's O
	used   int   // objects handed out this execution; reset rewinds it
}

// New takes the next object from t's engine's store for the slab and
// registers it, tagged with t and t's per-thread creation sequence
// number: the stable identity heap canonicalization (internal/canon)
// keys on.
func (s ObjSlab[O, P]) New(t *T) (P, ObjID) {
	e, th := t.e, t.th
	if e.slabs == nil {
		e.slabs = make([]slabStore, objSlabs)
	}
	st := &e.slabs[s.idx]
	if st.used == len(st.chunks)*slabChunk {
		st.chunks = append(st.chunks, new([slabChunk]O))
	}
	p := P(&st.chunks[st.used/slabChunk].(*[slabChunk]O)[st.used%slabChunk])
	st.used++
	id := ObjID(len(e.objects))
	e.objects = append(e.objects, p)
	e.objMeta = append(e.objMeta, ObjMeta{Creator: th.id, Seq: th.objSeq})
	th.objSeq++
	return p, id
}
