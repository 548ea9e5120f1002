package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"brainprint/internal/attacker"
	"brainprint/internal/gallery"
	"brainprint/internal/gallery/live"
	"brainprint/internal/gallery/shard"
	"brainprint/internal/replicate"
	"brainprint/internal/router"
	"brainprint/internal/serve"
)

// listener serves one handler on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

// close stops the listener and its connections and waits for Serve to
// return.
func (l *listener) close() {
	if l == nil {
		return
	}
	_ = l.srv.Close()
	<-l.done
}

// buildGallery enrolls the base subjects into a fresh single-file
// gallery, the input of every engine the benchmark builds.
func buildGallery(inputs [][]float64) (*gallery.Gallery, error) {
	g := gallery.New(features)
	for i, v := range inputs {
		if err := g.Enroll(subjectID(i), v); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// serveNode builds one serving node over an attacker session.
func serveNode(tr *tracer, atk *attacker.Attacker, cfg serve.Config) (*listener, error) {
	s, err := serve.New(atk, cfg)
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if tr != nil {
		h = tr.handler("serve", h)
	}
	return listen(h)
}

// staticStack is a read-only sharded store behind one serving node.
type staticStack struct {
	store *shard.Store
	node  *listener
}

func buildStatic(inputs [][]float64, tr *tracer) (*staticStack, error) {
	g, err := buildGallery(inputs)
	if err != nil {
		return nil, err
	}
	store, err := shard.FromGallery(g, shards, false)
	if err != nil {
		return nil, err
	}
	var eng gallery.Engine = store
	if tr != nil {
		eng = tracedEngine{Engine: store, t: tr, layer: "shard"}
	}
	atk, err := attacker.New(eng, attacker.WithTopK(topK))
	if err != nil {
		return nil, err
	}
	node, err := serveNode(tr, atk, serve.Config{})
	if err != nil {
		return nil, err
	}
	return &staticStack{store: store, node: node}, nil
}

func (s *staticStack) close() { s.node.close() }

// liveStack is a writable live primary, one WAL-shipping replica
// bootstrapped from it, and a router in front of both, each on its own
// loopback listener, all over a fresh directory.
type liveStack struct {
	dir       string
	eng       *live.Engine
	rep       *replicate.Replica
	primary   *listener
	replica   *listener
	router    *listener
	stopWatch context.CancelFunc
	watchDone chan struct{}
	bootstrap time.Duration // replicate.Start wall time
}

func buildLive(root string, inputs [][]float64, compactAfter int, tr *tracer) (ls *liveStack, err error) {
	dir, err := os.MkdirTemp(root, "live-")
	if err != nil {
		return nil, fmt.Errorf("creating the live directory: %w", err)
	}
	ls = &liveStack{dir: dir}
	defer func() {
		if err != nil {
			ls.close()
		}
	}()
	g, err := buildGallery(inputs)
	if err != nil {
		return ls, err
	}
	store, err := shard.FromGallery(g, shards, false)
	if err != nil {
		return ls, err
	}
	if ls.eng, err = live.CreateFromStore(filepath.Join(dir, "primary"), store, live.Options{CompactAfter: compactAfter}); err != nil {
		return ls, err
	}
	var m gallery.Mutable = ls.eng
	if tr != nil {
		m = tracedMutable{Mutable: ls.eng, t: tr, layer: "live"}
	}
	atk, err := attacker.New(nil, attacker.WithMutableGallery(m), attacker.WithTopK(topK))
	if err != nil {
		return ls, err
	}
	if ls.primary, err = serveNode(tr, atk, serve.Config{Live: ls.eng}); err != nil {
		return ls, err
	}

	start := time.Now()
	if ls.rep, err = replicate.Start(ls.primary.url, filepath.Join(dir, "replica"), replicate.Options{}); err != nil {
		return ls, err
	}
	ls.bootstrap = time.Since(start)
	var reng gallery.Engine = ls.rep
	if tr != nil {
		reng = tracedEngine{Engine: ls.rep, t: tr, layer: "replicate"}
	}
	ratk, err := attacker.New(reng, attacker.WithTopK(topK))
	if err != nil {
		return ls, err
	}
	if ls.replica, err = serveNode(tr, ratk, serve.Config{Replica: ls.rep}); err != nil {
		return ls, err
	}

	rt, err := router.New(router.Config{Primary: ls.primary.url, Replicas: []string{ls.replica.url}})
	if err != nil {
		return ls, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ls.stopWatch, ls.watchDone = cancel, make(chan struct{})
	go func() {
		defer close(ls.watchDone)
		rt.Watch(ctx)
	}()
	h := rt.Handler()
	if tr != nil {
		h = tr.handler("router", h)
	}
	ls.router, err = listen(h)
	return ls, err
}

// close tears the topology down front to back and removes its
// directory.
func (ls *liveStack) close() {
	if ls.stopWatch != nil {
		ls.stopWatch()
		<-ls.watchDone
	}
	ls.router.close()
	ls.replica.close()
	if ls.rep != nil {
		_ = ls.rep.Close() // teardown: the directory is removed next
	}
	ls.primary.close()
	if ls.eng != nil {
		_ = ls.eng.Close()
	}
	_ = os.RemoveAll(ls.dir)
}

// visibility times how long each acknowledged enroll takes to become
// visible on the replica (Replica.Index(id) >= 0). It wakes on every
// commit of the replica's engine (live.Engine.WaitWAL) and on every new
// acknowledgement, so its resolution is the scheduler's, not a polling
// period's.
type visibility struct {
	rep *replicate.Replica

	mu      sync.Mutex
	pending map[string]time.Time
	ms      []float64

	kick   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

func watchVisibility(rep *replicate.Replica) *visibility {
	v := &visibility{rep: rep, pending: map[string]time.Time{}, kick: make(chan struct{}, 1), done: make(chan struct{})}
	v.ctx, v.cancel = context.WithCancel(context.Background())
	go v.loop()
	return v
}

// acked registers an enroll acknowledged at ack.
func (v *visibility) acked(id string, ack time.Time) {
	v.mu.Lock()
	v.pending[id] = ack
	v.mu.Unlock()
	select {
	case v.kick <- struct{}{}:
	default:
	}
}

func (v *visibility) scan() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for id, ack := range v.pending {
		if v.rep.Index(id) >= 0 {
			v.ms = append(v.ms, ms(time.Since(ack)))
			delete(v.pending, id)
		}
	}
}

func (v *visibility) loop() {
	defer close(v.done)
	for {
		eng := v.rep.Engine()
		st := eng.ReplicationState()
		v.scan()
		ctx, cancel := context.WithCancel(v.ctx)
		woke := make(chan error, 1)
		go func() { woke <- eng.WaitWAL(ctx, st.Generation, st.Seq) }()
		select {
		case err := <-woke:
			if err != nil && v.ctx.Err() == nil {
				time.Sleep(time.Millisecond) // engine swapped or closed: re-resolve it
			}
		case <-v.kick:
		case <-v.ctx.Done():
		}
		cancel()
		if v.ctx.Err() != nil {
			return
		}
	}
}

// finish waits up to grace for the pending enrolls to become visible,
// stops the watcher, and returns the visibility latencies and the
// number of enrolls never seen on the replica.
func (v *visibility) finish(grace time.Duration) ([]float64, int) {
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		v.mu.Lock()
		n := len(v.pending)
		v.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	v.cancel()
	<-v.done
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.ms, len(v.pending)
}
