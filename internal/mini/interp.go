package mini

import (
	"fmt"
	"math/rand"

	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// Options configures one execution of a program.
type Options struct {
	// Seed drives the scheduler; equal seeds give identical executions.
	Seed int64
	// Tool observes every operation (any race detector or pipeline). May
	// be nil to just run the program.
	Tool rr.Tool
	// MaxSteps bounds execution (default 1 << 20); exceeding it is a
	// runtime error, catching accidental infinite loops.
	MaxSteps int
	// RecordTrace captures the event stream in Result.Trace.
	RecordTrace bool

	// chooser overrides the seeded random scheduler (used by Explore for
	// systematic enumeration).
	chooser chooser
}

// chooser picks which of n runnable threads steps next.
type chooser interface {
	choose(n int) int
}

// rngChooser is the default seeded random scheduler.
type rngChooser struct{ r *rand.Rand }

func (c *rngChooser) choose(n int) int { return c.r.Intn(n) }

// Result is the outcome of one execution.
type Result struct {
	// Output collects print values in execution order.
	Output []int64
	// Steps is the number of scheduler steps taken.
	Steps int
	// Err is the runtime failure, if any (assertion, division by zero,
	// deadlock, double fork, lock misuse, step limit).
	Err error
	// Races are the tool's warnings (nil without a tool).
	Races []rr.Report
	// Trace is the recorded event stream when Options.RecordTrace is set.
	Trace trace.Trace
}

// RuntimeError is a failure during execution, attributed to a source
// line and thread.
type RuntimeError struct {
	Line   int
	Thread string
	Msg    string
}

func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("mini: runtime error at line %d (thread %s): %s", e.Line, e.Thread, e.Msg)
	}
	return fmt.Sprintf("mini: runtime error (thread %s): %s", e.Thread, e.Msg)
}

// blockReason says why a thread cannot step.
type blockReason uint8

const (
	ready blockReason = iota
	blockedOnLock
	blockedOnJoin
	blockedOnBarrier
	blockedOnNotify
	done
)

// frame is one entry of a thread's control stack.
type frame struct {
	block *Block
	pc    int
	loop  *While // non-nil for loop-body frames: re-test on exhaustion
	txEnd bool   // emit TxEnd when this frame is popped (atomic block)
}

// threadRun is one thread's runtime state.
type threadRun struct {
	name    string
	id      int32
	frames  []frame
	locals  map[string]int64
	status  blockReason
	waitFor string // lock or thread name while blocked
	started bool
	// waitStage tracks progress through a wait statement: 0 = not
	// waiting, 1 = parked until notify, 2 = notified, re-acquiring.
	waitStage int
}

// interp is the whole-machine state.
type interp struct {
	prog     *Program
	pick     chooser
	vars     map[string]int64
	varID    map[string]uint64
	volID    map[string]uint64
	lockID   map[string]uint64
	lockHeld map[string]int32 // owner id, or absent
	threads  []*threadRun
	byName   map[string]*threadRun
	emitFn   func(trace.Event)
	out      []int64
	eventIx  int
}

// Run executes the program under the given options.
func Run(p *Program, opt Options) *Result {
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = 1 << 20
	}
	res := &Result{}
	pick := opt.chooser
	if pick == nil {
		pick = &rngChooser{r: rand.New(rand.NewSource(opt.Seed))}
	}
	in := &interp{
		prog:     p,
		pick:     pick,
		vars:     map[string]int64{},
		varID:    map[string]uint64{},
		volID:    map[string]uint64{},
		lockID:   map[string]uint64{},
		lockHeld: map[string]int32{},
		byName:   map[string]*threadRun{},
	}
	for i, v := range p.Vars {
		in.varID[v] = uint64(i)
		in.vars[v] = 0
	}
	for i, v := range p.Volatiles {
		in.volID[v] = uint64(i)
		in.vars[v] = 0
	}
	for i, l := range p.Locks {
		in.lockID[l] = uint64(i)
	}

	var disp *rr.Dispatcher
	if opt.Tool != nil {
		disp = rr.NewDispatcher(opt.Tool)
	}
	in.emitFn = func(e trace.Event) {
		if disp != nil {
			disp.EventBatch([]trace.Event{e})
		}
		if opt.RecordTrace {
			res.Trace = append(res.Trace, e)
		}
		in.eventIx++
	}

	// Thread 0 is main; declared threads get ids in source order when
	// forked (pre-assigned here so ids are schedule-independent).
	main := &threadRun{name: "main", id: 0, locals: map[string]int64{}, started: true}
	main.frames = []frame{{block: p.Main}}
	in.threads = append(in.threads, main)
	in.byName["main"] = main
	for i, name := range p.ThreadOrder {
		t := &threadRun{name: name, id: int32(i + 1), locals: map[string]int64{}, status: done}
		// status=done until forked; started=false distinguishes it.
		in.threads = append(in.threads, t)
		in.byName[name] = t
	}

	err := in.run(opt.MaxSteps, res)
	res.Err = err
	res.Output = in.out
	if opt.Tool != nil {
		res.Races = opt.Tool.Races()
	}
	return res
}

// run is the scheduler loop.
func (in *interp) run(maxSteps int, res *Result) error {
	for {
		// Refresh blocked threads whose condition cleared.
		for _, t := range in.threads {
			switch t.status {
			case blockedOnLock:
				if _, held := in.lockHeld[t.waitFor]; !held {
					t.status = ready
				}
			case blockedOnJoin:
				u := in.byName[t.waitFor]
				if u.started && u.status == done {
					t.status = ready
				}
			}
		}

		var runnable []*threadRun
		liveCount := 0
		barrierCount := 0
		for _, t := range in.threads {
			if !t.started || t.status == done {
				continue
			}
			liveCount++
			switch t.status {
			case ready:
				runnable = append(runnable, t)
			case blockedOnBarrier:
				barrierCount++
			}
		}
		if liveCount == 0 {
			return nil // everything finished
		}
		if len(runnable) == 0 {
			if barrierCount == liveCount {
				in.releaseBarrier()
				continue
			}
			waiting := 0
			for _, t := range in.threads {
				if t.started && t.status == blockedOnNotify {
					waiting++
				}
			}
			if waiting > 0 {
				return &RuntimeError{Thread: "scheduler", Msg: "deadlock: no runnable thread (lost wakeup: threads waiting without a notifier)"}
			}
			return &RuntimeError{Thread: "scheduler", Msg: "deadlock: no runnable thread"}
		}
		if res.Steps >= maxSteps {
			return &RuntimeError{Thread: "scheduler", Msg: fmt.Sprintf("step limit %d exceeded", maxSteps)}
		}
		res.Steps++
		t := runnable[in.pick.choose(len(runnable))]
		if err := in.step(t); err != nil {
			return err
		}
	}
}

// releaseBarrier wakes every thread blocked at the barrier, emitting the
// barrier-release event for exactly that set.
func (in *interp) releaseBarrier() {
	var tids []int32
	for _, t := range in.threads {
		if t.started && t.status == blockedOnBarrier {
			tids = append(tids, t.id)
		}
	}
	in.emitFn(trace.Barrier(0, tids...))
	for _, t := range in.threads {
		if t.started && t.status == blockedOnBarrier {
			t.status = ready
		}
	}
}

// step executes one statement (or one loop-condition re-test) of t.
func (in *interp) step(t *threadRun) error {
	for {
		if len(t.frames) == 0 {
			t.status = done
			return nil
		}
		f := &t.frames[len(t.frames)-1]
		if f.pc >= len(f.block.Stmts) {
			loop := f.loop
			if f.txEnd {
				in.emitFn(trace.Event{Kind: trace.TxEnd, Tid: t.id})
			}
			t.frames = t.frames[:len(t.frames)-1]
			if loop != nil {
				v, err := in.eval(t, loop.Cond)
				if err != nil {
					return err
				}
				if v != 0 {
					t.frames = append(t.frames, frame{block: loop.Body, loop: loop})
				}
				return nil // the re-test was this step
			}
			continue
		}
		s := f.block.Stmts[f.pc]
		advance, err := in.exec(t, s)
		if err != nil {
			return err
		}
		if advance {
			f.pc++
		}
		return nil
	}
}

// exec runs one statement; it returns false (without error) when the
// thread blocked and the statement must be retried.
func (in *interp) exec(t *threadRun, s Stmt) (bool, error) {
	fail := func(line int, msg string, args ...any) error {
		return &RuntimeError{Line: line, Thread: t.name, Msg: fmt.Sprintf(msg, args...)}
	}
	switch s := s.(type) {
	case *Assign:
		v, err := in.eval(t, s.Expr)
		if err != nil {
			return false, err
		}
		if _, isLocal := t.locals[s.Name]; isLocal {
			t.locals[s.Name] = v
			return true, nil
		}
		if id, ok := in.varID[s.Name]; ok {
			in.emitFn(trace.Wr(t.id, id))
		} else {
			in.emitFn(trace.VWr(t.id, in.volID[s.Name]))
		}
		in.vars[s.Name] = v
		return true, nil
	case *LocalDecl:
		v, err := in.eval(t, s.Expr)
		if err != nil {
			return false, err
		}
		t.locals[s.Name] = v
		return true, nil
	case *Acquire:
		if owner, held := in.lockHeld[s.Lock]; held {
			if owner == t.id {
				return false, fail(s.Line, "acquire of lock %q already held by this thread", s.Lock)
			}
			t.status = blockedOnLock
			t.waitFor = s.Lock
			return false, nil
		}
		in.lockHeld[s.Lock] = t.id
		in.emitFn(trace.Acq(t.id, in.lockID[s.Lock]))
		return true, nil
	case *Release:
		if owner, held := in.lockHeld[s.Lock]; !held || owner != t.id {
			return false, fail(s.Line, "release of lock %q not held by this thread", s.Lock)
		}
		delete(in.lockHeld, s.Lock)
		in.emitFn(trace.Rel(t.id, in.lockID[s.Lock]))
		return true, nil
	case *Fork:
		u := in.byName[s.Thread]
		if u.started {
			return false, fail(s.Line, "thread %q forked twice", s.Thread)
		}
		u.started = true
		u.status = ready
		u.frames = []frame{{block: in.prog.Threads[s.Thread]}}
		in.emitFn(trace.ForkOf(t.id, u.id))
		return true, nil
	case *Join:
		u := in.byName[s.Thread]
		if !u.started {
			return false, fail(s.Line, "join of thread %q before fork", s.Thread)
		}
		if u.status != done {
			t.status = blockedOnJoin
			t.waitFor = s.Thread
			return false, nil
		}
		in.emitFn(trace.JoinOf(t.id, u.id))
		return true, nil
	case *If:
		v, err := in.eval(t, s.Cond)
		if err != nil {
			return false, err
		}
		// Advance past the If first, then push the taken branch.
		fr := &t.frames[len(t.frames)-1]
		fr.pc++
		if v != 0 {
			t.frames = append(t.frames, frame{block: s.Then})
		} else if s.Else != nil {
			t.frames = append(t.frames, frame{block: s.Else})
		}
		return false, nil // pc already advanced
	case *While:
		v, err := in.eval(t, s.Cond)
		if err != nil {
			return false, err
		}
		fr := &t.frames[len(t.frames)-1]
		fr.pc++
		if v != 0 {
			t.frames = append(t.frames, frame{block: s.Body, loop: s})
		}
		return false, nil
	case *Print:
		v, err := in.eval(t, s.Expr)
		if err != nil {
			return false, err
		}
		in.out = append(in.out, v)
		return true, nil
	case *Assert:
		v, err := in.eval(t, s.Expr)
		if err != nil {
			return false, err
		}
		if v == 0 {
			return false, fail(s.Line, "assertion failed")
		}
		return true, nil
	case *Skip, *Yield:
		return true, nil
	case *Wait:
		switch t.waitStage {
		case 0:
			// Wait entry: must hold the lock; release it and park.
			if owner, held := in.lockHeld[s.Lock]; !held || owner != t.id {
				return false, fail(s.Line, "wait on lock %q not held by this thread", s.Lock)
			}
			in.emitFn(trace.Event{Kind: trace.Wait, Tid: t.id, Target: in.lockID[s.Lock]})
			delete(in.lockHeld, s.Lock)
			t.waitStage = 1
			t.status = blockedOnNotify
			t.waitFor = s.Lock
			return false, nil
		default:
			// Notified: re-acquire the lock to complete the wait.
			if owner, held := in.lockHeld[s.Lock]; held {
				if owner == t.id {
					return false, fail(s.Line, "wait re-acquisition found lock %q already owned", s.Lock)
				}
				t.status = blockedOnLock
				t.waitFor = s.Lock
				return false, nil
			}
			in.lockHeld[s.Lock] = t.id
			in.emitFn(trace.Acq(t.id, in.lockID[s.Lock]))
			t.waitStage = 0
			return true, nil
		}
	case *Notify:
		if owner, held := in.lockHeld[s.Lock]; !held || owner != t.id {
			return false, fail(s.Line, "notify on lock %q not held by this thread", s.Lock)
		}
		in.emitFn(trace.Event{Kind: trace.Notify, Tid: t.id, Target: in.lockID[s.Lock]})
		for _, u := range in.threads {
			if u.started && u.status == blockedOnNotify && u.waitFor == s.Lock {
				u.waitStage = 2
				u.status = blockedOnLock // woken; must re-acquire
			}
		}
		return true, nil
	case *Atomic:
		fr := &t.frames[len(t.frames)-1]
		fr.pc++
		in.emitFn(trace.Event{Kind: trace.TxBegin, Tid: t.id})
		t.frames = append(t.frames, frame{block: s.Body, txEnd: true})
		return false, nil
	case *Barrier:
		// Advance past the statement, then park at the barrier; the
		// scheduler releases everyone together.
		fr := &t.frames[len(t.frames)-1]
		fr.pc++
		t.status = blockedOnBarrier
		return false, nil
	}
	return false, fail(0, "unhandled statement %T", s)
}

// eval evaluates an expression, emitting read events for shared names.
func (in *interp) eval(t *threadRun, e Expr) (int64, error) {
	switch e := e.(type) {
	case *Num:
		return e.Value, nil
	case *Ref:
		if v, ok := t.locals[e.Name]; ok {
			return v, nil
		}
		if id, ok := in.varID[e.Name]; ok {
			in.emitFn(trace.Rd(t.id, id))
		} else {
			in.emitFn(trace.VRd(t.id, in.volID[e.Name]))
		}
		return in.vars[e.Name], nil
	case *Unary:
		v, err := in.eval(t, e.X)
		if err != nil {
			return 0, err
		}
		if e.Op == "-" {
			return -v, nil
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case *Binary:
		l, err := in.eval(t, e.L)
		if err != nil {
			return 0, err
		}
		// Short-circuit logical operators.
		switch e.Op {
		case "&&":
			if l == 0 {
				return 0, nil
			}
			r, err := in.eval(t, e.R)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		case "||":
			if l != 0 {
				return 1, nil
			}
			r, err := in.eval(t, e.R)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}
		r, err := in.eval(t, e.R)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, &RuntimeError{Line: e.Line, Thread: t.name, Msg: "division by zero"}
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, &RuntimeError{Line: e.Line, Thread: t.name, Msg: "modulo by zero"}
			}
			return l % r, nil
		case "==":
			return boolToInt(l == r), nil
		case "!=":
			return boolToInt(l != r), nil
		case "<":
			return boolToInt(l < r), nil
		case "<=":
			return boolToInt(l <= r), nil
		case ">":
			return boolToInt(l > r), nil
		case ">=":
			return boolToInt(l >= r), nil
		}
		return 0, &RuntimeError{Line: e.Line, Thread: t.name, Msg: "unknown operator " + e.Op}
	}
	return 0, &RuntimeError{Thread: t.name, Msg: fmt.Sprintf("unhandled expression %T", e)}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
