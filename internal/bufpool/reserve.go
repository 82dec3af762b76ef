package bufpool

import (
	"fmt"
	"runtime"
	"sync"
)

// Window is how many hand-backs memory may go unused before it is released:
// a pool sheds, every Window/2 hand-backs of its own, the blocks and buffers
// no run has drawn since it last did, so what a run needed stays for at least
// Window/2 and at most Window further runs; a spare that lay in the reserve
// through Window hand-backs of others is dropped whole; and the spare slabs of
// every record type (chunks.go) age by the same count.
const Window = 128

// The reserve is where payload memory waits between simulations: a short
// stack of rewound pools. A run pops one (CheckOut), is its only user until
// it pushes it back (HandBack), and so never synchronizes on Get or Put;
// runs that overlap in time each pop or make their own, and no more spares
// are kept than could be in use at once. Blocks serve any class, so a spare
// holds what the greediest recent run drew, not the sum of every class's
// high-water mark.
var reserve struct {
	sync.Mutex
	spares []*Pool
}

// CheckOut returns a pool for the exclusive use of one simulation: the spare
// most recently handed back, or a new pool when there is none.
func CheckOut() *Pool {
	reserve.Lock()
	var p *Pool
	if n := len(reserve.spares); n > 0 {
		p = reserve.spares[n-1]
		reserve.spares[n-1] = nil
		reserve.spares = reserve.spares[:n-1]
	}
	reserve.Unlock()
	if p == nil {
		return New()
	}
	p.idle = 0
	// The hook is read here and not only in New: a spare made before the
	// switch holds a run's bytes, and what it hands out must not be them.
	p.poison = poison
	return p
}

// HandBack ends a simulation's use of p, which the caller must not touch
// again: the pool is rewound and becomes a spare. Nothing of the simulation
// may execute afterwards, since memory it still points to is handed out anew.
func HandBack(p *Pool) {
	p.rewind()
	if p.age++; p.age >= Window/2 {
		p.age = 0
		p.lanes((*lane).shed)
	}
	eachStack(typedStack.tick)
	reserve.Lock()
	defer reserve.Unlock()
	kept := reserve.spares[:0]
	for _, s := range reserve.spares {
		if s.idle++; s.idle < Window {
			kept = append(kept, s)
		}
	}
	clear(reserve.spares[len(kept):])
	if len(kept) < runtime.GOMAXPROCS(0) {
		kept = append(kept, p)
	}
	reserve.spares = kept
}

// eachStack calls fn for the stack of every record type.
func eachStack(fn func(typedStack)) {
	stacks.Range(func(_, s any) bool {
		fn(s.(typedStack))
		return true
	})
}

// ReserveInfo describes the reserve at one moment, for tests.
type ReserveInfo struct {
	Spares int      // pools waiting for a run
	Bytes  int64    // payload memory they hold
	Slabs  SlabInfo // record slabs of every type together
}

// Reserve reports what the reserve holds.
func Reserve() ReserveInfo {
	reserve.Lock()
	defer reserve.Unlock()
	info := ReserveInfo{Spares: len(reserve.spares)}
	for _, s := range reserve.spares {
		info.Bytes += s.held()
	}
	eachStack(func(s typedStack) {
		i := s.info()
		info.Slabs.Spare += i.Spare
		info.Slabs.Made += i.Made
		info.Slabs.Drawn += i.Drawn
		info.Slabs.Returned += i.Returned
	})
	return info
}

// DrainReserve empties the reserve, so that the next runs start from new
// pools and new slabs. Tests only: for measurements that must not see memory
// kept from earlier runs.
func DrainReserve() {
	reserve.Lock()
	defer reserve.Unlock()
	clear(reserve.spares)
	reserve.spares = reserve.spares[:0]
	eachStack(typedStack.drain)
}

// CheckReserve verifies what exclusive ownership rests on: no more spares than
// GOMAXPROCS, every spare rewound, and no block or buffer held by two of them;
// and of every record type no more spare slabs than the cap, each all zero and
// held once. Tests only.
func CheckReserve() (err error) {
	eachStack(func(s typedStack) {
		if err == nil {
			err = s.check()
		}
	})
	if err != nil {
		return err
	}
	reserve.Lock()
	defer reserve.Unlock()
	if n, limit := len(reserve.spares), runtime.GOMAXPROCS(0); n > limit {
		return fmt.Errorf("bufpool: %d spares in the reserve, want at most GOMAXPROCS = %d", n, limit)
	}
	owner := make(map[*byte]int)
	for k, s := range reserve.spares {
		if s.out != 0 || s.gets != 0 || s.cur != nil {
			return fmt.Errorf("bufpool: spare %d is not rewound (%d gets, %d buffers out)", k, s.gets, s.out)
		}
		for i, list := range s.classes {
			if len(list) != 0 {
				return fmt.Errorf("bufpool: spare %d keeps %d free buffers of class %d", k, len(list), classSize(i))
			}
		}
		var err error
		s.lanes(func(l *lane) {
			if l.next != 0 {
				err = fmt.Errorf("bufpool: spare %d has %d pieces of a lane drawn", k, l.next)
			}
			for _, b := range l.mem {
				if prev, dup := owner[&b[0]]; dup {
					err = fmt.Errorf("bufpool: spares %d and %d hold the same block", prev, k)
				}
				owner[&b[0]] = k
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
