package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"sigkern/internal/cluster"
	"sigkern/internal/journal"
	"sigkern/internal/svc"
)

// serverWorkers is the pool size of every simserved the benchmark
// starts, fixed so runs on machines with different core counts load
// the service the same way.
const serverWorkers = 2

// listener serves one handler on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "httpbench: serve:", err)
		}
	}()
	return l, nil
}

// close stops accepting, drops open connections and waits for Serve
// to return.
func (l *listener) close() {
	_ = l.srv.Close() // Close reports only listener-close errors, and the listener is going away
	<-l.done
}

// simserved is one in-process simserved: a service and its HTTP API.
type simserved struct {
	svc *svc.Service
	l   *listener
	dir string // journal directory; empty when memory-only
}

func (s *simserved) url() string { return s.l.url }

func (s *simserved) close() {
	s.l.close()
	s.svc.Close()
}

// startSimserved starts a memory-only service. factory nil means the
// paper machines.
func startSimserved(factory svc.MachineFactory) (*simserved, error) {
	s := svc.NewService(svc.Options{Pool: svc.PoolOptions{Workers: serverWorkers}, Factory: factory})
	l, err := listen(s.Handler())
	if err != nil {
		s.Close()
		return nil, err
	}
	return &simserved{svc: s, l: l}, nil
}

// startShard starts a durable cluster shard journaling to a fresh
// directory under the temp dir with fsync on every commit.
func startShard(name string, factory svc.MachineFactory) (*simserved, error) {
	dir, err := os.MkdirTemp("", "httpbench-"+name+"-")
	if err != nil {
		return nil, err
	}
	s, err := svc.OpenDurable(svc.Options{
		Pool:    svc.PoolOptions{Workers: serverWorkers},
		Factory: factory,
		ShardID: name,
	}, journal.Options{Dir: dir, Sync: journal.SyncAlways})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := listen(s.Handler())
	if err != nil {
		s.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &simserved{svc: s, l: l, dir: dir}, nil
}

// clusterStack is simgate in front of two durable shards.
type clusterStack struct {
	shards []*simserved
	gw     *cluster.Gateway
	l      *listener
}

func (c *clusterStack) url() string { return c.l.url }

func startCluster(factory svc.MachineFactory) (*clusterStack, error) {
	c := &clusterStack{}
	var shards []cluster.Shard
	for _, name := range []string{"s1", "s2"} {
		s, err := startShard(name, factory)
		if err != nil {
			c.close()
			return nil, err
		}
		c.shards = append(c.shards, s)
		shards = append(shards, cluster.Shard{Name: name, URL: s.url()})
	}
	gw, err := cluster.NewGateway(cluster.Options{Shards: shards})
	if err != nil {
		c.close()
		return nil, err
	}
	gw.Start() // one synchronous probe sweep: shards are ready before the first write
	c.gw = gw
	l, err := listen(gw.Handler())
	if err != nil {
		c.close()
		return nil, err
	}
	c.l = l
	return c, nil
}

// shardFor returns the shard that issued a job ID (IDs carry the
// shard name as prefix).
func (c *clusterStack) shardFor(id string) *simserved {
	for _, s := range c.shards {
		if len(id) > len(s.svc.ShardID()) && id[:len(s.svc.ShardID())+1] == s.svc.ShardID()+"-" {
			return s
		}
	}
	return nil
}

func (c *clusterStack) close() {
	if c.l != nil {
		c.l.close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, s := range c.shards {
		s.close()
	}
}

// removeDirs deletes the shards' journals; call after close.
func (c *clusterStack) removeDirs() {
	for _, s := range c.shards {
		os.RemoveAll(s.dir)
	}
}

// waitReady polls url's /readyz until it answers 200.
func waitReady(ctx context.Context, hc *http.Client, url string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", url, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// newClient returns an HTTP client holding at most conns connections
// per host: the benchmark's load comes from that many connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}
