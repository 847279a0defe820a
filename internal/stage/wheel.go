package stage

import (
	"container/heap"
	"sync"
	"time"
)

// wheel runs the periodic work of every virtual stage in the process — push
// decisions and parent watchdogs — on one goroutine and one runtime timer.
// A simulated fleet holds thousands of stages whose timers almost never
// fire; giving each its own ticker and goroutine would cost a parked stack
// and a runtime timer per stage, and wake them all in one wave every
// interval. Tasks are kept in a min-heap by due time; the goroutine sleeps
// until the earliest is due, runs it, and schedules it one interval later.
//
// A task's tick runs on the wheel's goroutine and so must never block: it
// decides, and hands any I/O (a push write, a registration) to a
// short-lived goroutine of its own.
//
// The goroutine starts with the first task and exits when the last one
// leaves, so a process with no pushing or parented stage runs none.
type wheel struct {
	base time.Time // due times are offsets from base on the monotonic clock

	mu      sync.Mutex
	tasks   taskHeap
	running bool  // the loop goroutine is live
	current *task // the task whose tick is running, nil between ticks
	// ticked is broadcast after every tick, so leave can wait out a tick
	// of the task it removes.
	ticked sync.Cond
	// wake (capacity 1) interrupts the loop's sleep when a task joins
	// ahead of the earliest due time, or the last task leaves.
	wake chan struct{}
}

// task is one periodic job on the wheel.
type task struct {
	due   time.Duration // next run, as an offset from the wheel's base
	every time.Duration
	index int // position in the heap; -1 while off the wheel
	// fire is the tick. It runs on the wheel's goroutine and must not
	// block.
	fire func()
}

// stageWheel is the process-wide wheel every virtual stage joins.
var stageWheel = newWheel()

func newWheel() *wheel {
	w := &wheel{base: time.Now(), wake: make(chan struct{}, 1)}
	w.ticked.L = &w.mu
	return w
}

func (w *wheel) now() time.Duration { return time.Since(w.base) }

// join schedules t to fire every t.every. Like a Ticker's, its first tick
// comes no sooner than one interval after join; a phase derived from id
// delays it by up to one more, so a fleet that starts at once is sampled
// evenly across the interval rather than in one wave.
func (w *wheel) join(t *task, id uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t.due = w.now() + t.every + phase(id, t.every)
	heap.Push(&w.tasks, t)
	if !w.running {
		w.running = true
		go w.loop()
	} else if t.index == 0 {
		w.signal()
	}
}

// leave takes t off the wheel. It returns once t is no longer ticking, so
// after leave returns t's tick neither runs nor starts again.
func (w *wheel) leave(t *task) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if t.index >= 0 {
		heap.Remove(&w.tasks, t.index)
		if len(w.tasks) == 0 {
			w.signal()
		}
	}
	for w.current == t {
		w.ticked.Wait()
	}
}

// signal wakes the loop without blocking; one pending wake suffices.
func (w *wheel) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// loop fires due tasks in due-time order until the wheel is empty.
func (w *wheel) loop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	w.mu.Lock()
	for len(w.tasks) > 0 {
		t := w.tasks[0]
		now := w.now()
		if wait := t.due - now; wait > 0 {
			w.mu.Unlock()
			// Stop and drain, then Reset: correct under both the
			// synchronous and the pre-Go 1.23 asynchronous timer channels.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-w.wake:
			}
			w.mu.Lock()
			continue
		}
		// Like a Ticker, a late wheel drops the ticks it missed, and the
		// next one keeps the task's phase.
		t.due += t.every * (1 + (now-t.due)/t.every)
		heap.Fix(&w.tasks, 0)
		w.current = t
		w.mu.Unlock()
		t.fire()
		w.mu.Lock()
		w.current = nil
		w.ticked.Broadcast()
	}
	w.running = false
	w.mu.Unlock()
}

// phase spreads ids over [0, every): the fractional parts of id times the
// golden ratio are evenly distributed for consecutive ids.
func phase(id uint64, every time.Duration) time.Duration {
	frac := float64((id*0x9E3779B97F4A7C15)>>11) / (1 << 53)
	return time.Duration(frac * float64(every))
}

// taskHeap orders tasks by due time (container/heap.Interface).
type taskHeap []*task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}

func (h *taskHeap) Push(x any) {
	t := x.(*task)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.index = -1
	return t
}
