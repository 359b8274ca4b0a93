package main

import (
	"sync/atomic"

	"surfnet/internal/decoder"
)

// tracedDecoder delegates to a real decoder and records one span per graph
// decode, named "decode.<decoder name>", under the span its parent field
// holds. It keeps the inner decoder's name, so every rng stream the program
// labels by decoder name is unchanged and traced outputs equal untraced
// ones.
type tracedDecoder struct {
	inner  decoder.Decoder
	span   string
	rec    *recorder
	parent atomic.Int64
	req    atomic.Int64
}

func newTracedDecoder(inner decoder.Decoder, rec *recorder) *tracedDecoder {
	d := &tracedDecoder{inner: inner, span: "decode." + inner.Name(), rec: rec}
	d.parent.Store(noSpan)
	return d
}

// under sets the parent span and request of the decodes that follow.
func (d *tracedDecoder) under(parent int, req int64) {
	d.parent.Store(int64(parent))
	d.req.Store(req)
}

func (d *tracedDecoder) Name() string { return d.inner.Name() }

func (d *tracedDecoder) Decode(in decoder.Input) ([]int, error) {
	id := d.rec.start(d.span, int(d.parent.Load()), d.req.Load())
	defer d.rec.end(id)
	return d.inner.Decode(in)
}

func (d *tracedDecoder) DecodeWith(in decoder.Input, s *decoder.Scratch) ([]int, error) {
	id := d.rec.start(d.span, int(d.parent.Load()), d.req.Load())
	defer d.rec.end(id)
	if sd, ok := d.inner.(decoder.ScratchDecoder); ok {
		return sd.DecodeWith(in, s)
	}
	return d.inner.Decode(in)
}
