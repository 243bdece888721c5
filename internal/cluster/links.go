package cluster

import (
	"fmt"
	"sync"

	"stringoram/internal/server"
)

// links caches one outgoing connection per node ID around a dial
// function; the Router and every Node keep one. The map lock is never
// held across a dial, so a peer that black-holes its handshake delays
// only the callers bound for that peer, and server.DialNode bounds how
// long even those wait. Safe for concurrent use.
type links struct {
	dial func(NodeInfo) (*server.Client, error)

	mu     sync.Mutex
	byID   map[string]*server.Client
	closed bool
}

// errLinksClosed answers a get after closeAll.
var errLinksClosed = fmt.Errorf("cluster: links closed: %w", server.ErrClosed)

func newLinks(dial func(NodeInfo) (*server.Client, error)) *links {
	return &links{dial: dial, byID: make(map[string]*server.Client)}
}

// get returns the cached link to node, dialing if there is none. Two
// callers that miss together both dial; the second to finish closes its
// connection and takes the first's.
func (l *links) get(node NodeInfo) (*server.Client, error) {
	l.mu.Lock()
	c, ok := l.byID[node.ID]
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil, errLinksClosed
	}
	if ok {
		return c, nil
	}
	c, err := l.dial(node)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		c.Close()
		return nil, errLinksClosed
	}
	if prev, ok := l.byID[node.ID]; ok {
		c.Close()
		return prev, nil
	}
	l.byID[node.ID] = c
	return c, nil
}

// drop forgets and closes a dead link.
func (l *links) drop(id string) {
	l.mu.Lock()
	if c, ok := l.byID[id]; ok {
		c.Close()
		delete(l.byID, id)
	}
	l.mu.Unlock()
}

// closeAll closes every link and refuses further dials.
func (l *links) closeAll() {
	l.mu.Lock()
	l.closed = true
	for id, c := range l.byID {
		c.Close()
		delete(l.byID, id)
	}
	l.mu.Unlock()
}
