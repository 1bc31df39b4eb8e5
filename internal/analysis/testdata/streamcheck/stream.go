// Package streamfixture exercises streamcheck. Its fixture package path
// ends in internal/service, so it is patrolled.
package streamfixture

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
)

type ndjsonWriter struct {
	enc *json.Encoder
	w   io.Writer
}

func (nw *ndjsonWriter) frame(v any) error {
	return nw.enc.Encode(v)
}

// bufferedFrame is frame without a flush: a frame all the same.
func (nw *ndjsonWriter) bufferedFrame(v any) error {
	return nw.enc.Encode(v)
}

// encodedFrame writes a pre-encoded frame: a frame all the same.
func (nw *ndjsonWriter) encodedFrame(b []byte, flush bool) error {
	_, err := nw.w.Write(append(b, '\n'))
	return err
}

type cell struct {
	Row, Col int
	Value    float64
}

func badWriter(w io.Writer, cells []cell) {
	enc := json.NewEncoder(w)
	bw := bufio.NewWriter(w)
	enc.Encode(cells[0])     // want "Encode error discarded"
	_ = enc.Encode(cells[1]) // want "Encode error assigned to _"
	bw.Flush()               // want "Flush error discarded"
}

func badLoop(nw *ndjsonWriter, cells []cell) {
	for _, c := range cells { // want "streaming loop writes frames without consulting the request context"
		nw.frame(c) // want "frame error discarded"
	}
}

func badBufferedLoop(nw *ndjsonWriter, cells []cell) {
	for _, c := range cells { // want "streaming loop writes frames without consulting the request context"
		_ = nw.bufferedFrame(c) // want "bufferedFrame error assigned to _"
	}
	nw.bufferedFrame(cells[0]) // want "bufferedFrame error discarded"
}

func badEncodedLoop(nw *ndjsonWriter, frames [][]byte) {
	for _, b := range frames { // want "streaming loop writes frames without consulting the request context"
		nw.encodedFrame(b, false) // want "encodedFrame error discarded"
	}
	_ = nw.encodedFrame(frames[0], true) // want "encodedFrame error assigned to _"
}

func goodEncodedLoop(ctx context.Context, nw *ndjsonWriter, frames [][]byte) error {
	for _, b := range frames {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := nw.encodedFrame(b, false); err != nil {
			return err
		}
	}
	return nil
}

func goodBufferedLoop(ctx context.Context, nw *ndjsonWriter, cells []cell) error {
	for _, c := range cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := nw.bufferedFrame(c); err != nil {
			return err
		}
	}
	return nil
}

func goodLoop(ctx context.Context, nw *ndjsonWriter, cells []cell) error {
	for _, c := range cells {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := nw.frame(c); err != nil {
			return err
		}
	}
	return nil
}

func goodSelectLoop(ctx context.Context, nw *ndjsonWriter, in <-chan cell) error {
	for {
		select {
		case c, ok := <-in:
			if !ok {
				return nil
			}
			if err := nw.frame(c); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// goodTerminal shows the annotated exception: a best-effort terminal frame
// after the stream's real work, where the error genuinely has no consumer.
func goodTerminal(nw *ndjsonWriter, done any) {
	//pubopt:allow(streamcheck): terminal frame; the stream ends either way
	nw.frame(done)
}
