package pattern

// Collection is a dense multi-dimensional array that patterns read from and
// write to. Collections model the data that flows between parallel patterns
// (Section 2.2); their access patterns determine on-chip banking and
// off-chip burst/gather behaviour.
type Collection struct {
	Name string
	Elem Type
	Dims []int

	f32 []float32
	i32 []int32
}

// NewF32 allocates a float32 collection with the given dimensions.
func NewF32(name string, dims ...int) *Collection {
	c := &Collection{Name: name, Elem: F32, Dims: dims}
	c.f32 = make([]float32, c.Len())
	return c
}

// NewI32 allocates an int32 collection with the given dimensions.
func NewI32(name string, dims ...int) *Collection {
	c := &Collection{Name: name, Elem: I32, Dims: dims}
	c.i32 = make([]int32, c.Len())
	return c
}

// FromF32 wraps existing float32 data as a 1-D collection.
func FromF32(name string, data []float32) *Collection {
	return &Collection{Name: name, Elem: F32, Dims: []int{len(data)}, f32: data}
}

// FromI32 wraps existing int32 data as a 1-D collection.
func FromI32(name string, data []int32) *Collection {
	return &Collection{Name: name, Elem: I32, Dims: []int{len(data)}, i32: data}
}

// Len returns the total number of elements.
func (c *Collection) Len() int {
	n := 1
	for _, d := range c.Dims {
		n *= d
	}
	return n
}

// Rank returns the number of dimensions.
func (c *Collection) Rank() int { return len(c.Dims) }

func (c *Collection) flatten(idx []int) int {
	if len(idx) != len(c.Dims) {
		evalFail("pattern: collection %s rank %d indexed with %d indices", c.Name, len(c.Dims), len(idx))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= c.Dims[d] {
			evalFail("pattern: collection %s index %d out of range [0,%d) in dim %d", c.Name, i, c.Dims[d], d)
		}
		off = off*c.Dims[d] + i
	}
	return off
}

// F32At returns the float32 element at the given indices.
func (c *Collection) F32At(idx ...int) float32 { return c.f32[c.flatten(idx)] }

// I32At returns the int32 element at the given indices.
func (c *Collection) I32At(idx ...int) int32 { return c.i32[c.flatten(idx)] }

// SetF32 stores a float32 element at the given indices.
func (c *Collection) SetF32(v float32, idx ...int) { c.f32[c.flatten(idx)] = v }

// SetI32 stores an int32 element at the given indices.
func (c *Collection) SetI32(v int32, idx ...int) { c.i32[c.flatten(idx)] = v }

// F32Data exposes the backing float32 slice (row-major).
func (c *Collection) F32Data() []float32 { return c.f32 }

// I32Data exposes the backing int32 slice (row-major).
func (c *Collection) I32Data() []int32 { return c.i32 }
