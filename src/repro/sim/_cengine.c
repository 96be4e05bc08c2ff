/* Compiled simulation-kernel core.
 *
 * A CPython extension implementing the hot half of repro.sim:
 * Event, Timeout, Process, the _Wakeup boot/interrupt carrier and the
 * Simulator event loop.  Semantics are defined by the pure-python
 * reference (repro.sim._pyengine); the contract between the two cores
 * is BIT-IDENTICAL schedules — events fire in (time, scheduling order)
 * under both.  repro.sim.engine selects between them at import
 * (REPRO_SIM_CORE=auto|python|c) and tests/test_compiled_core.py plus
 * the golden grids enforce the equivalence.
 *
 * Queue layout (_pyengine keeps one (when, seq) heap; this splits it):
 *
 *   nowq  — FIFO array of events scheduled for exactly `now`.  The
 *           workload's dense same-instant bursts land here: append and
 *           popleft are O(1) with no per-entry allocation.
 *   heap  — binary min-heap of {when, seq, event} C structs for future
 *           instants; `seq` is a monotone push counter.
 *
 * Pop precedence is heap-entries-at-now first, then the nowq, then
 * advance time.  That reproduces the reference FIFO exactly: every
 * heap entry at instant T was pushed *before* time advanced to T
 * (scheduling at T once now==T lands in the nowq instead), so heap@T
 * entries precede all nowq entries in scheduling order, and `seq`
 * orders the heap entries among themselves.
 *
 * Python subclasses of Event (resource Requests, the AllOf/AnyOf
 * conditions built by repro.sim.engine) work unchanged: the types are
 * subclassable and every field the pure-python engine touches
 * (callbacks, _value, _ok, _triggered, _processed, _defused, sim) is
 * an ordinary writable attribute.  Events bound to a pure-python
 * simulator (e.g. the schedule-perturbation checker) degrade
 * gracefully: triggering routes through sim._schedule whenever sim is
 * not a compiled Simulator.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* module-level state (single interpreter; mirrors _pyengine globals)  */

static PyObject *SimulationError;   /* from repro.sim._pyengine */
static PyObject *InterruptExc;      /* from repro.sim._pyengine */
static PyObject *cond_allof;        /* set by engine via set_conditions */
static PyObject *cond_anyof;
static PyObject *str_throw;         /* interned "throw"                 */
static PyObject *str_value;         /* interned "value"                 */

/* ------------------------------------------------------------------ */
/* object structs                                                      */

typedef struct {
    PyObject_HEAD
    PyObject *sim;          /* Simulator (or python sim) owning this    */
    PyObject *callbacks;    /* list while pending, None once processed  */
    PyObject *value;        /* _value                                   */
    char ok, triggered, processed, defused;
} EventObject;

/* _Wakeup shares EventObject's layout so the scheduler fires both
 * through the same struct accesses; `sim` stays None. */
typedef EventObject WakeupObject;

typedef struct {
    EventObject ev;
    double delay;
} TimeoutObject;

typedef struct ProcessObject ProcessObject;

/* lightweight bound-callback: calling it resumes its process */
typedef struct {
    PyObject_HEAD
    ProcessObject *proc;
} ResumeObject;

struct ProcessObject {
    EventObject ev;
    PyObject *generator;
    PyObject *waiting_on;   /* Event/Wakeup or None                     */
    PyObject *name;
    PyObject *resume_cb;    /* cached ResumeObject; NULL once finished  */
};

typedef struct {
    double when;
    unsigned long long seq;
    PyObject *ev;
} HeapEntry;

typedef struct {
    PyObject_HEAD
    double now;
    long long steps;
    unsigned long long seq;
    PyObject *telemetry;
    PyObject *active_process;
    PyObject *sanitizer;
    /* same-instant FIFO */
    PyObject **nowq;
    Py_ssize_t nq_head, nq_len, nq_cap;
    /* future instants */
    HeapEntry *heap;
    Py_ssize_t hlen, hcap;
} SimObject;

static PyTypeObject Event_Type;
static PyTypeObject Wakeup_Type;
static PyTypeObject Timeout_Type;
static PyTypeObject Process_Type;
static PyTypeObject Resume_Type;
static PyTypeObject Simulator_Type;

static int resume_process(ProcessObject *p, EventObject *trigger);

/* raise `exc_type` with a formatted message (cold error paths only) */
static void
raise_formatted(PyObject *exc_type, const char *format, ...)
{
    va_list va;
    va_start(va, format);
    PyObject *msg = PyUnicode_FromFormatV(format, va);
    va_end(va);
    if (msg != NULL) {
        PyErr_SetObject(exc_type, msg);
        Py_DECREF(msg);
    }
}

/* repr-style formatting helper: a new float object (or NULL) */
static PyObject *
float_obj(double v)
{
    return PyFloat_FromDouble(v);
}

/* ------------------------------------------------------------------ */
/* scheduler internals                                                 */

static int
nowq_reserve(SimObject *sim)
{
    if (sim->nq_head > 0) {
        memmove(sim->nowq, sim->nowq + sim->nq_head,
                (size_t)(sim->nq_len - sim->nq_head) * sizeof(PyObject *));
        sim->nq_len -= sim->nq_head;
        sim->nq_head = 0;
        if (sim->nq_len < sim->nq_cap)
            return 0;
    }
    Py_ssize_t cap = sim->nq_cap ? sim->nq_cap * 2 : 64;
    PyObject **q = PyMem_Realloc(sim->nowq, (size_t)cap * sizeof(PyObject *));
    if (q == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    sim->nowq = q;
    sim->nq_cap = cap;
    return 0;
}

static int
heap_push(SimObject *sim, double when, PyObject *ev)
{
    if (sim->hlen == sim->hcap) {
        Py_ssize_t cap = sim->hcap ? sim->hcap * 2 : 64;
        HeapEntry *h = PyMem_Realloc(sim->heap, (size_t)cap * sizeof(HeapEntry));
        if (h == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        sim->heap = h;
        sim->hcap = cap;
    }
    HeapEntry *heap = sim->heap;
    Py_ssize_t i = sim->hlen++;
    unsigned long long seq = sim->seq++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (heap[parent].when < when ||
            (heap[parent].when == when && heap[parent].seq < seq))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i].when = when;
    heap[i].seq = seq;
    heap[i].ev = Py_NewRef(ev);
    return 0;
}

/* pop the heap minimum; the caller owns the returned reference */
static PyObject *
heap_pop(SimObject *sim)
{
    HeapEntry *heap = sim->heap;
    PyObject *ev = heap[0].ev;
    Py_ssize_t n = --sim->hlen;
    if (n > 0) {
        HeapEntry last = heap[n];
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= n)
                break;
            Py_ssize_t right = child + 1;
            if (right < n &&
                (heap[right].when < heap[child].when ||
                 (heap[right].when == heap[child].when &&
                  heap[right].seq < heap[child].seq)))
                child = right;
            if (last.when < heap[child].when ||
                (last.when == heap[child].when && last.seq < heap[child].seq))
                break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = last;
    }
    return ev;
}

/* schedule onto a compiled simulator */
static int
schedule_c(SimObject *sim, PyObject *ev, double delay)
{
    if (delay < 0.0) {
        PyObject *d = float_obj(delay);
        raise_formatted(SimulationError,
                        "cannot schedule into the past (delay=%R)", d);
        Py_XDECREF(d);
        return -1;
    }
    double when = sim->now + delay;
    if (when == sim->now) {
        if (sim->nq_len == sim->nq_cap && nowq_reserve(sim) < 0)
            return -1;
        sim->nowq[sim->nq_len++] = Py_NewRef(ev);
        return 0;
    }
    return heap_push(sim, when, ev);
}

/* schedule onto whatever simulator `sim` is */
static int
schedule_any(PyObject *sim, PyObject *ev, double delay)
{
    if (PyObject_TypeCheck(sim, &Simulator_Type))
        return schedule_c((SimObject *)sim, ev, delay);
    PyObject *r = PyObject_CallMethod(sim, "_schedule", "Od", ev, delay);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Event                                                               */

static int
event_init(EventObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim;
    static char *kwlist[] = {"sim", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &sim))
        return -1;
    PyObject *cb = PyList_New(0);
    if (cb == NULL)
        return -1;
    Py_XSETREF(self->sim, Py_NewRef(sim));
    Py_XSETREF(self->callbacks, cb);
    Py_XSETREF(self->value, Py_NewRef(Py_None));
    self->ok = 1;
    self->triggered = 0;
    self->processed = 0;
    self->defused = 0;
    return 0;
}

static int
event_traverse(EventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    return 0;
}

static int
event_clear(EventObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    return 0;
}

static void
event_dealloc(EventObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    event_clear(self);
    tp->tp_free((PyObject *)self);
}

/* shared trigger: set state and schedule; 0/-1 */
static int
event_trigger(EventObject *self, PyObject *value, int ok, double delay)
{
    if (self->triggered) {
        PyErr_SetString(SimulationError, "event already triggered");
        return -1;
    }
    self->triggered = 1;
    self->ok = (char)ok;
    Py_XSETREF(self->value, Py_NewRef(value));
    return schedule_any(self->sim, (PyObject *)self, delay);
}

/* parse the (x, delay=0.0) calling convention shared by succeed/fail */
static int
parse_trigger_args(const char *meth, const char *argname,
                   PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                   PyObject **x, double *delay)
{
    if (nargs > 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes at most 2 arguments", meth);
        return -1;
    }
    if (nargs >= 1)
        *x = args[0];
    if (nargs == 2) {
        *delay = PyFloat_AsDouble(args[1]);
        if (*delay == -1.0 && PyErr_Occurred())
            return -1;
    }
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *v = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, argname) == 0) {
                if (nargs >= 1) {
                    PyErr_Format(PyExc_TypeError,
                                 "%s() got multiple values for '%s'",
                                 meth, argname);
                    return -1;
                }
                *x = v;
            }
            else if (PyUnicode_CompareWithASCIIString(name, "delay") == 0) {
                *delay = PyFloat_AsDouble(v);
                if (*delay == -1.0 && PyErr_Occurred())
                    return -1;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "%s() got an unexpected keyword argument %R",
                             meth, name);
                return -1;
            }
        }
    }
    return 0;
}

static PyObject *
event_succeed(EventObject *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    PyObject *value = Py_None;
    double delay = 0.0;
    if (parse_trigger_args("succeed", "value", args, nargs, kwnames,
                           &value, &delay) < 0)
        return NULL;
    if (event_trigger(self, value, 1, delay) < 0)
        return NULL;
    return Py_NewRef((PyObject *)self);
}

static PyObject *
event_fail(EventObject *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    PyObject *exc = NULL;
    double delay = 0.0;
    if (parse_trigger_args("fail", "exception", args, nargs, kwnames,
                           &exc, &delay) < 0)
        return NULL;
    if (exc == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "fail() missing required argument: 'exception'");
        return NULL;
    }
    if (self->triggered) {
        PyErr_SetString(SimulationError, "event already triggered");
        return NULL;
    }
    if (!PyExceptionInstance_Check(exc)) {
        PyErr_SetString(SimulationError,
                        "Event.fail() requires an exception instance");
        return NULL;
    }
    if (event_trigger(self, exc, 0, delay) < 0)
        return NULL;
    return Py_NewRef((PyObject *)self);
}

static PyObject *
event_defused_meth(EventObject *self, PyObject *Py_UNUSED(ignored))
{
    self->defused = 1;
    return Py_NewRef((PyObject *)self);
}

static PyObject *
event_get_triggered(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->triggered);
}

static PyObject *
event_get_processed(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->processed);
}

static PyObject *
event_get_ok(EventObject *self, void *closure)
{
    if (!self->triggered) {
        PyErr_SetString(SimulationError, "event value inspected before trigger");
        return NULL;
    }
    return PyBool_FromLong(self->ok);
}

static PyObject *
event_get_value(EventObject *self, void *closure)
{
    if (!self->triggered) {
        PyErr_SetString(SimulationError, "event value inspected before trigger");
        return NULL;
    }
    return Py_NewRef(self->value ? self->value : Py_None);
}

static PyObject *
event_repr(EventObject *self)
{
    const char *state = self->processed ? "processed"
                      : (self->triggered ? "triggered" : "pending");
    return PyUnicode_FromFormat("<%s %s>", Py_TYPE(self)->tp_name, state);
}

static PyMemberDef event_members[] = {
    {"sim", T_OBJECT, offsetof(EventObject, sim), 0, "owning simulator"},
    {"callbacks", T_OBJECT, offsetof(EventObject, callbacks), 0,
     "pending callback list (None once processed)"},
    {"_value", T_OBJECT, offsetof(EventObject, value), 0, NULL},
    {"_ok", T_BOOL, offsetof(EventObject, ok), 0, NULL},
    {"_triggered", T_BOOL, offsetof(EventObject, triggered), 0, NULL},
    {"_processed", T_BOOL, offsetof(EventObject, processed), 0, NULL},
    {"_defused", T_BOOL, offsetof(EventObject, defused), 0, NULL},
    {NULL},
};

static PyGetSetDef event_getset[] = {
    {"triggered", (getter)event_get_triggered, NULL, NULL, NULL},
    {"processed", (getter)event_get_processed, NULL, NULL, NULL},
    {"ok", (getter)event_get_ok, NULL, NULL, NULL},
    {"value", (getter)event_get_value, NULL, NULL, NULL},
    {NULL},
};

static PyMethodDef event_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void))event_succeed,
     METH_FASTCALL | METH_KEYWORDS,
     "Trigger the event successfully `delay` microseconds from now."},
    {"fail", (PyCFunction)(void (*)(void))event_fail,
     METH_FASTCALL | METH_KEYWORDS,
     "Trigger the event as failed; waiters see the exception raised."},
    {"defused", (PyCFunction)event_defused_meth, METH_NOARGS,
     "Mark a failed event as handled out-of-band."},
    {NULL},
};

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Event",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A one-shot occurrence in simulated time (compiled core).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)event_init,
    .tp_dealloc = (destructor)event_dealloc,
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_repr = (reprfunc)event_repr,
    .tp_members = event_members,
    .tp_getset = event_getset,
    .tp_methods = event_methods,
};

/* ------------------------------------------------------------------ */
/* _Wakeup                                                             */

static WakeupObject *
wakeup_new(PyObject *callback, PyObject *value, int ok)
{
    WakeupObject *w = PyObject_GC_New(WakeupObject, &Wakeup_Type);
    if (w == NULL)
        return NULL;
    w->sim = Py_NewRef(Py_None);
    w->value = Py_NewRef(value);
    w->ok = (char)ok;
    w->triggered = 1;
    w->processed = 0;
    w->defused = (char)!ok;
    w->callbacks = PyList_New(1);
    if (w->callbacks == NULL) {
        Py_DECREF(w);
        return NULL;
    }
    PyList_SET_ITEM(w->callbacks, 0, Py_NewRef(callback));
    PyObject_GC_Track((PyObject *)w);
    return w;
}

static void
wakeup_dealloc(WakeupObject *self)
{
    if (PyObject_GC_IsTracked((PyObject *)self))
        PyObject_GC_UnTrack(self);
    event_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject Wakeup_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine._Wakeup",
    .tp_basicsize = sizeof(WakeupObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Pre-triggered boot/interrupt carrier (compiled core).",
    .tp_dealloc = (destructor)wakeup_dealloc,
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_members = event_members,
};

/* ------------------------------------------------------------------ */
/* Timeout                                                             */

static int
timeout_setup(TimeoutObject *self, PyObject *sim, PyObject *delay_obj,
              PyObject *value)
{
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return -1;
    if (delay < 0.0) {
        raise_formatted(SimulationError, "negative timeout delay %R", delay_obj);
        return -1;
    }
    PyObject *cb = PyList_New(0);
    if (cb == NULL)
        return -1;
    EventObject *ev = &self->ev;
    Py_XSETREF(ev->sim, Py_NewRef(sim));
    Py_XSETREF(ev->callbacks, cb);
    Py_XSETREF(ev->value, Py_NewRef(value));
    ev->ok = 1;
    ev->triggered = 1;   /* a timeout is born fired */
    ev->processed = 0;
    ev->defused = 0;
    self->delay = delay;
    return schedule_any(sim, (PyObject *)self, delay);
}

static int
timeout_init(TimeoutObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *delay_obj, *value = Py_None;
    static char *kwlist[] = {"sim", "delay", "value", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O", kwlist,
                                     &sim, &delay_obj, &value))
        return -1;
    return timeout_setup(self, sim, delay_obj, value);
}

static PyMemberDef timeout_members[] = {
    {"delay", T_DOUBLE, offsetof(TimeoutObject, delay), READONLY, NULL},
    {NULL},
};

static PyTypeObject Timeout_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Timeout",
    .tp_basicsize = sizeof(TimeoutObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "An event that fires `delay` microseconds after creation.",
    .tp_base = &Event_Type,
    .tp_init = (initproc)timeout_init,
    .tp_dealloc = (destructor)event_dealloc,
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_members = timeout_members,
};

/* ------------------------------------------------------------------ */
/* ResumeCallback                                                      */

static PyObject *
resume_call(ResumeObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *trigger;
    if (!PyArg_ParseTuple(args, "O", &trigger))
        return NULL;
    if (resume_process(self->proc, (EventObject *)trigger) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
resume_traverse(ResumeObject *self, visitproc visit, void *arg)
{
    Py_VISIT((PyObject *)self->proc);
    return 0;
}

static int
resume_clear(ResumeObject *self)
{
    Py_CLEAR(self->proc);
    return 0;
}

static void
resume_dealloc(ResumeObject *self)
{
    if (PyObject_GC_IsTracked((PyObject *)self))
        PyObject_GC_UnTrack(self);
    resume_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject Resume_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine._ResumeCallback",
    .tp_basicsize = sizeof(ResumeObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_call = (ternaryfunc)resume_call,
    .tp_dealloc = (destructor)resume_dealloc,
    .tp_traverse = (traverseproc)resume_traverse,
    .tp_clear = (inquiry)resume_clear,
};

/* ------------------------------------------------------------------ */
/* Process                                                             */

static int
process_init(ProcessObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *generator, *name = NULL;
    static char *kwlist[] = {"sim", "generator", "name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O", kwlist,
                                     &sim, &generator, &name))
        return -1;
    if (!PyGen_CheckExact(generator) &&
        (!PyObject_HasAttrString(generator, "send") ||
         !PyObject_HasAttrString(generator, "throw"))) {
        raise_formatted(SimulationError,
                        "Process requires a generator, got %s",
                        Py_TYPE(generator)->tp_name);
        return -1;
    }
    PyObject *cb = PyList_New(0);
    if (cb == NULL)
        return -1;
    EventObject *ev = &self->ev;
    Py_XSETREF(ev->sim, Py_NewRef(sim));
    Py_XSETREF(ev->callbacks, cb);
    Py_XSETREF(ev->value, Py_NewRef(Py_None));
    ev->ok = 1;
    ev->triggered = 0;
    ev->processed = 0;
    ev->defused = 0;
    Py_XSETREF(self->generator, Py_NewRef(generator));
    if (name == NULL || name == Py_None ||
        (PyUnicode_Check(name) && PyUnicode_GET_LENGTH(name) == 0)) {
        PyObject *gname = PyObject_GetAttrString(generator, "__name__");
        if (gname == NULL) {
            PyErr_Clear();
            gname = PyUnicode_FromString("process");
            if (gname == NULL)
                return -1;
        }
        Py_XSETREF(self->name, gname);
    }
    else {
        Py_XSETREF(self->name, Py_NewRef(name));
    }
    ResumeObject *rc = PyObject_GC_New(ResumeObject, &Resume_Type);
    if (rc == NULL)
        return -1;
    rc->proc = (ProcessObject *)Py_NewRef((PyObject *)self);
    PyObject_GC_Track((PyObject *)rc);
    Py_XSETREF(self->resume_cb, (PyObject *)rc);
    /* Bootstrap: resume once at the current instant. */
    WakeupObject *boot = wakeup_new(self->resume_cb, Py_None, 1);
    if (boot == NULL)
        return -1;
    if (schedule_any(sim, (PyObject *)boot, 0.0) < 0) {
        Py_DECREF(boot);
        return -1;
    }
    Py_XSETREF(self->waiting_on, (PyObject *)boot);
    return 0;
}

static int
process_traverse(ProcessObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->generator);
    Py_VISIT(self->waiting_on);
    Py_VISIT(self->name);
    Py_VISIT(self->resume_cb);
    return event_traverse(&self->ev, visit, arg);
}

static int
process_clear(ProcessObject *self)
{
    Py_CLEAR(self->generator);
    Py_CLEAR(self->waiting_on);
    Py_CLEAR(self->name);
    Py_CLEAR(self->resume_cb);
    return event_clear(&self->ev);
}

static void
process_dealloc(ProcessObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    process_clear(self);
    tp->tp_free((PyObject *)self);
}

static PyObject *
process_get_is_alive(ProcessObject *self, void *closure)
{
    return PyBool_FromLong(!self->ev.triggered);
}

/* None once the process has finished and dropped its callback */
static PyObject *
process_get_resume(ProcessObject *self, void *closure)
{
    return Py_NewRef(self->resume_cb ? self->resume_cb : Py_None);
}

static PyObject *
process_interrupt(ProcessObject *self, PyObject *const *args, Py_ssize_t nargs,
                  PyObject *kwnames)
{
    PyObject *cause = Py_None;
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "interrupt() takes at most 1 argument");
        return NULL;
    }
    if (nargs == 1)
        cause = args[0];
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            if (PyUnicode_CompareWithASCIIString(name, "cause") == 0)
                cause = args[nargs + i];
            else {
                PyErr_Format(PyExc_TypeError,
                             "interrupt() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    if (self->ev.triggered) {
        PyErr_SetString(SimulationError, "cannot interrupt a finished process");
        return NULL;
    }
    if (self->waiting_on == NULL || self->waiting_on == Py_None) {
        PyErr_SetString(SimulationError,
                        "cannot interrupt a process that is currently running");
        return NULL;
    }
    /* detach from whatever it was waiting on */
    EventObject *target = (EventObject *)self->waiting_on;
    PyObject *cbs = target->callbacks;
    if (cbs != NULL && cbs != Py_None && PyList_Check(cbs)) {
        Py_ssize_t n = PyList_GET_SIZE(cbs);
        for (Py_ssize_t i = 0; i < n; i++) {
            if (PyList_GET_ITEM(cbs, i) == self->resume_cb) {
                if (PyList_SetSlice(cbs, i, i + 1, NULL) < 0)
                    return NULL;
                break;
            }
        }
    }
    Py_XSETREF(self->waiting_on, Py_NewRef(Py_None));
    PyObject *irq = PyObject_CallFunctionObjArgs(InterruptExc, cause, NULL);
    if (irq == NULL)
        return NULL;
    WakeupObject *carrier = wakeup_new(self->resume_cb, irq, 0);
    Py_DECREF(irq);
    if (carrier == NULL)
        return NULL;
    if (schedule_any(self->ev.sim, (PyObject *)carrier, 0.0) < 0) {
        Py_DECREF(carrier);
        return NULL;
    }
    Py_XSETREF(self->waiting_on, (PyObject *)carrier);
    Py_RETURN_NONE;
}

/* trigger the process event as failed with the currently-raised
 * exception (mirrors `except BaseException as exc: self.fail(exc)`) */
static int
process_fail_current(ProcessObject *self)
{
    PyObject *etype, *evalue, *etb;
    PyErr_Fetch(&etype, &evalue, &etb);
    if (etype == NULL) {
        PyErr_SetString(PyExc_SystemError, "process failure without exception");
        return -1;
    }
    PyErr_NormalizeException(&etype, &evalue, &etb);
    if (etb != NULL)
        PyException_SetTraceback(evalue, etb);
    int rc = event_trigger(&self->ev, evalue, 0, 0.0);
    Py_DECREF(etype);
    Py_DECREF(evalue);
    Py_XDECREF(etb);
    return rc;
}

/* a StopIteration is pending: trigger the process with its .value */
static int
process_finish_stopiteration(ProcessObject *self)
{
    PyObject *etype, *evalue, *etb;
    PyErr_Fetch(&etype, &evalue, &etb);
    PyErr_NormalizeException(&etype, &evalue, &etb);
    Py_XDECREF(etype);
    Py_XDECREF(etb);
    PyObject *retval = evalue ? PyObject_GetAttr(evalue, str_value) : NULL;
    Py_XDECREF(evalue);
    if (retval == NULL) {
        if (PyErr_Occurred())
            return -1;
        retval = Py_NewRef(Py_None);
    }
    int rc = event_trigger(&self->ev, retval, 1, 0.0);
    Py_DECREF(retval);
    return rc;
}

/* The engine's hottest path: drive the generator until it waits again.
 * Mirrors _pyengine.Process._resume statement for statement.  Paths that
 * end the process leave through `finish`, which drops the cached resume
 * callback: it holds the process, so keeping it would leave a Process <->
 * callback cycle for the cycle collector.  `self_ref` keeps the process
 * alive for the rest of the call. */
static int
resume_process(ProcessObject *self, EventObject *trigger)
{
    PyObject *sim = self->ev.sim;
    if (PyObject_TypeCheck(sim, &Simulator_Type)) {
        SimObject *csim = (SimObject *)sim;
        Py_XSETREF(csim->active_process, Py_NewRef((PyObject *)self));
    }
    else if (PyObject_SetAttrString(sim, "active_process",
                                    (PyObject *)self) < 0) {
        return -1;
    }
    Py_XSETREF(self->waiting_on, Py_NewRef(Py_None));
    PyObject *gen = self->generator;
    /* keep self alive: triggering it may drop the last external ref */
    PyObject *self_ref = Py_NewRef((PyObject *)self);
    PyObject *trigger_ref = Py_NewRef((PyObject *)trigger);
    int rc = 0;
    for (;;) {
        PyObject *target = NULL;
        if (trigger->ok) {
            PySendResult sr = PyIter_Send(gen,
                                          trigger->value ? trigger->value
                                                         : Py_None,
                                          &target);
            Py_CLEAR(trigger_ref);
            if (sr == PYGEN_RETURN) {
                rc = event_trigger(&self->ev, target, 1, 0.0);
                Py_DECREF(target);
                goto finish;
            }
            if (sr == PYGEN_ERROR) {
                rc = process_fail_current(self);
                goto finish;
            }
        }
        else {
            trigger->defused = 1;
            target = PyObject_CallMethodOneArg(gen, str_throw,
                                               trigger->value ? trigger->value
                                                              : Py_None);
            Py_CLEAR(trigger_ref);
            if (target == NULL) {
                rc = PyErr_ExceptionMatches(PyExc_StopIteration)
                         ? process_finish_stopiteration(self)
                         : process_fail_current(self);
                goto finish;
            }
        }
        /* `target` is the yielded object (owned reference) */
        if (!PyObject_TypeCheck(target, &Event_Type)) {
            PyObject *msg = PyUnicode_FromFormat(
                "process %R yielded %s, expected Event",
                self->name, Py_TYPE(target)->tp_name);
            Py_DECREF(target);
            if (msg == NULL) {
                rc = -1;
                break;
            }
            PyObject *err = PyObject_CallFunctionObjArgs(SimulationError,
                                                         msg, NULL);
            Py_DECREF(msg);
            if (err == NULL) {
                rc = -1;
                break;
            }
            /* throw the complaint into the generator; whatever comes
             * back, the process ends here, exactly as in the reference
             * engine */
            PyObject *res = PyObject_CallMethodOneArg(gen, str_throw, err);
            if (res != NULL) {
                /* it caught the complaint and yielded again: fail the
                 * process with the complaint and close the generator */
                Py_DECREF(res);
                rc = event_trigger(&self->ev, err, 0, 0.0);
                if (rc == 0) {
                    res = PyObject_CallMethod(gen, "close", NULL);
                    if (res == NULL)
                        rc = -1;
                    Py_XDECREF(res);
                }
            }
            else {
                rc = PyErr_ExceptionMatches(PyExc_StopIteration)
                         ? process_finish_stopiteration(self)
                         : process_fail_current(self);
            }
            Py_DECREF(err);
            goto finish;
        }
        EventObject *tev = (EventObject *)target;
        if (tev->sim != self->ev.sim) {
            Py_DECREF(target);
            PyObject *err = PyObject_CallFunction(
                SimulationError, "s",
                "yielded event belongs to a different Simulator");
            if (err == NULL) {
                rc = -1;
                break;
            }
            rc = event_trigger(&self->ev, err, 0, 0.0);
            Py_DECREF(err);
            goto finish;
        }
        if (tev->processed) {
            /* already fired: resume immediately with its outcome */
            trigger = tev;
            trigger_ref = target;   /* stays alive across the send */
            continue;
        }
        if (self->resume_cb == NULL) {
            /* only a stale `_resume` reference can drive a finished
             * process back here */
            Py_DECREF(target);
            PyErr_SetString(SimulationError, "finished process resumed");
            rc = -1;
            break;
        }
        if (tev->callbacks != NULL && PyList_Check(tev->callbacks))
            rc = PyList_Append(tev->callbacks, self->resume_cb);
        else {
            PyObject *r = PyObject_CallMethod(tev->callbacks ? tev->callbacks
                                                             : Py_None,
                                              "append", "O", self->resume_cb);
            rc = (r == NULL) ? -1 : 0;
            Py_XDECREF(r);
        }
        if (rc < 0) {
            Py_DECREF(target);
            break;
        }
        Py_XSETREF(self->waiting_on, target);
        break;
    }
    Py_DECREF(self_ref);
    return rc;
finish:
    Py_CLEAR(self->resume_cb);
    Py_DECREF(self_ref);
    return rc;
}

static PyMemberDef process_members[] = {
    {"name", T_OBJECT, offsetof(ProcessObject, name), 0, NULL},
    {"_generator", T_OBJECT, offsetof(ProcessObject, generator), READONLY, NULL},
    {"_waiting_on", T_OBJECT, offsetof(ProcessObject, waiting_on), 0, NULL},
    {NULL},
};

static PyGetSetDef process_getset[] = {
    {"is_alive", (getter)process_get_is_alive, NULL, NULL, NULL},
    {"_resume", (getter)process_get_resume, NULL, NULL, NULL},
    {NULL},
};

static PyMethodDef process_methods[] = {
    {"interrupt", (PyCFunction)(void (*)(void))process_interrupt,
     METH_FASTCALL | METH_KEYWORDS,
     "Throw Interrupt into the process at the current instant."},
    {NULL},
};

static PyTypeObject Process_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Process",
    .tp_basicsize = sizeof(ProcessObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Drives a generator; the process *is* an event that fires on return.",
    .tp_base = &Event_Type,
    .tp_init = (initproc)process_init,
    .tp_dealloc = (destructor)process_dealloc,
    .tp_traverse = (traverseproc)process_traverse,
    .tp_clear = (inquiry)process_clear,
    .tp_members = process_members,
    .tp_getset = process_getset,
    .tp_methods = process_methods,
};

/* ------------------------------------------------------------------ */
/* Simulator                                                           */

static int
sim_init(SimObject *self, PyObject *args, PyObject *kwds)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "Simulator() takes no arguments");
        return -1;
    }
    self->now = 0.0;
    self->steps = 0;
    self->seq = 0;
    Py_XSETREF(self->telemetry, Py_NewRef(Py_None));
    Py_XSETREF(self->active_process, Py_NewRef(Py_None));
    Py_XSETREF(self->sanitizer, Py_NewRef(Py_None));
    return 0;
}

static int
sim_traverse(SimObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->telemetry);
    Py_VISIT(self->active_process);
    Py_VISIT(self->sanitizer);
    for (Py_ssize_t i = self->nq_head; i < self->nq_len; i++)
        Py_VISIT(self->nowq[i]);
    for (Py_ssize_t i = 0; i < self->hlen; i++)
        Py_VISIT(self->heap[i].ev);
    return 0;
}

static int
sim_clear(SimObject *self)
{
    Py_CLEAR(self->telemetry);
    Py_CLEAR(self->active_process);
    Py_CLEAR(self->sanitizer);
    Py_ssize_t head = self->nq_head, len = self->nq_len;
    self->nq_head = self->nq_len = 0;
    for (Py_ssize_t i = head; i < len; i++)
        Py_CLEAR(self->nowq[i]);
    Py_ssize_t hlen = self->hlen;
    self->hlen = 0;
    for (Py_ssize_t i = 0; i < hlen; i++)
        Py_CLEAR(self->heap[i].ev);
    return 0;
}

static void
sim_dealloc(SimObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    sim_clear(self);
    PyMem_Free(self->nowq);
    PyMem_Free(self->heap);
    tp->tp_free((PyObject *)self);
}

/* fire one event: run callbacks, propagate undefused failures.
 * Steals the reference to `evobj`.  0/-1. */
static int
sim_fire(SimObject *self, PyObject *evobj)
{
    EventObject *ev = (EventObject *)evobj;
    self->steps++;
    PyObject *callbacks = ev->callbacks;     /* take over the reference */
    ev->callbacks = Py_NewRef(Py_None);
    ev->processed = 1;
    if (callbacks == NULL || !PyList_Check(callbacks)) {
        Py_XDECREF(callbacks);
        Py_DECREF(evobj);
        PyErr_SetString(PyExc_AssertionError,
                        "event fired with no callback list");
        return -1;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
        PyObject *cb = Py_NewRef(PyList_GET_ITEM(callbacks, i));
        int rc;
        if (Py_TYPE(cb) == &Resume_Type)
            rc = resume_process(((ResumeObject *)cb)->proc, ev);
        else {
            PyObject *r = PyObject_CallOneArg(cb, evobj);
            rc = (r == NULL) ? -1 : 0;
            Py_XDECREF(r);
        }
        Py_DECREF(cb);
        if (rc < 0) {
            Py_DECREF(callbacks);
            Py_DECREF(evobj);
            return -1;
        }
    }
    Py_DECREF(callbacks);
    if (!ev->ok && !ev->defused) {
        PyObject *exc = ev->value;
        if (exc != NULL && PyExceptionInstance_Check(exc))
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        else {
            PyObject *r = PyObject_Repr(exc ? exc : Py_None);
            if (r != NULL) {
                PyErr_SetObject(SimulationError, r);
                Py_DECREF(r);
            }
        }
        Py_DECREF(evobj);
        return -1;
    }
    Py_DECREF(evobj);
    return 0;
}

/* pick the next event, advancing `now` when the instant drains.  The
 * caller owns the returned reference; NULL (no exception) = empty. */
static PyObject *
sim_next_event(SimObject *self)
{
    if (self->hlen && self->heap[0].when == self->now)
        return heap_pop(self);
    if (self->nq_head < self->nq_len) {
        PyObject *ev = self->nowq[self->nq_head++];
        if (self->nq_head == self->nq_len)
            self->nq_head = self->nq_len = 0;
        return ev;
    }
    if (self->hlen) {
        self->now = self->heap[0].when;
        return heap_pop(self);
    }
    return NULL;
}

static PyObject *
sim_event_meth(SimObject *self, PyObject *Py_UNUSED(ignored))
{
    EventObject *e = (EventObject *)Event_Type.tp_alloc(&Event_Type, 0);
    if (e == NULL)
        return NULL;
    e->callbacks = PyList_New(0);
    if (e->callbacks == NULL) {
        Py_DECREF(e);
        return NULL;
    }
    e->sim = Py_NewRef((PyObject *)self);
    e->value = Py_NewRef(Py_None);
    e->ok = 1;
    e->triggered = e->processed = e->defused = 0;
    return (PyObject *)e;
}

static PyObject *
sim_timeout_meth(SimObject *self, PyObject *const *args, Py_ssize_t nargs,
                 PyObject *kwnames)
{
    PyObject *delay_obj = NULL, *value = Py_None;
    if (nargs >= 1)
        delay_obj = args[0];
    if (nargs >= 2)
        value = args[1];
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *v = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "delay") == 0)
                delay_obj = v;
            else if (PyUnicode_CompareWithASCIIString(name, "value") == 0)
                value = v;
            else {
                PyErr_Format(PyExc_TypeError,
                             "timeout() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    if (delay_obj == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "timeout() missing required argument: 'delay'");
        return NULL;
    }
    TimeoutObject *t = (TimeoutObject *)Timeout_Type.tp_alloc(&Timeout_Type, 0);
    if (t == NULL)
        return NULL;
    if (timeout_setup(t, (PyObject *)self, delay_obj, value) < 0) {
        Py_DECREF(t);
        return NULL;
    }
    return (PyObject *)t;
}

static PyObject *
sim_process_meth(SimObject *self, PyObject *const *args, Py_ssize_t nargs,
                 PyObject *kwnames)
{
    PyObject *generator = NULL, *name = NULL;
    if (nargs >= 1)
        generator = args[0];
    if (nargs >= 2)
        name = args[1];
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *kw = PyTuple_GET_ITEM(kwnames, i);
            PyObject *v = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(kw, "generator") == 0)
                generator = v;
            else if (PyUnicode_CompareWithASCIIString(kw, "name") == 0)
                name = v;
            else {
                PyErr_Format(PyExc_TypeError,
                             "process() got an unexpected keyword argument %R",
                             kw);
                return NULL;
            }
        }
    }
    if (generator == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "process() missing required argument: 'generator'");
        return NULL;
    }
    PyObject *argtuple = name != NULL
        ? PyTuple_Pack(3, (PyObject *)self, generator, name)
        : PyTuple_Pack(2, (PyObject *)self, generator);
    if (argtuple == NULL)
        return NULL;
    PyObject *proc = PyObject_Call((PyObject *)&Process_Type, argtuple, NULL);
    Py_DECREF(argtuple);
    return proc;
}

static PyObject *
sim_all_of(SimObject *self, PyObject *events)
{
    if (cond_allof == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "condition classes not registered (engine import incomplete)");
        return NULL;
    }
    return PyObject_CallFunctionObjArgs(cond_allof, (PyObject *)self, events, NULL);
}

static PyObject *
sim_any_of(SimObject *self, PyObject *events)
{
    if (cond_anyof == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "condition classes not registered (engine import incomplete)");
        return NULL;
    }
    return PyObject_CallFunctionObjArgs(cond_anyof, (PyObject *)self, events, NULL);
}

static PyObject *
sim_schedule_meth(SimObject *self, PyObject *const *args, Py_ssize_t nargs,
                  PyObject *kwnames)
{
    PyObject *ev = NULL;
    double delay = 0.0;
    if (parse_trigger_args("_schedule", "event", args, nargs, kwnames,
                           &ev, &delay) < 0)
        return NULL;
    if (ev == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "_schedule() missing required argument: 'event'");
        return NULL;
    }
    if (schedule_c(self, ev, delay) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
sim_step(SimObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *ev = sim_next_event(self);
    if (ev == NULL) {
        PyErr_SetString(PyExc_IndexError, "step on an empty schedule");
        return NULL;
    }
    if (sim_fire(self, ev) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
sim_run(SimObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *until_obj = Py_None;
    static char *kwlist[] = {"until", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &until_obj))
        return NULL;
    int has_until = until_obj != Py_None;
    double until = 0.0;
    if (has_until) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
        if (until < self->now) {
            PyObject *n = float_obj(self->now);
            raise_formatted(SimulationError,
                            "run(until=%S) is in the past (now=%S)",
                            until_obj, n);
            Py_XDECREF(n);
            return NULL;
        }
    }
    for (;;) {
        PyObject *ev;
        if (self->hlen && self->heap[0].when == self->now)
            ev = heap_pop(self);
        else if (self->nq_head < self->nq_len) {
            ev = self->nowq[self->nq_head++];
            if (self->nq_head == self->nq_len)
                self->nq_head = self->nq_len = 0;
        }
        else if (self->hlen) {
            if (has_until && self->heap[0].when > until) {
                self->now = until;
                Py_RETURN_NONE;
            }
            self->now = self->heap[0].when;
            ev = heap_pop(self);
        }
        else
            break;
        if (sim_fire(self, ev) < 0)
            return NULL;
    }
    if (has_until)
        self->now = until;
    Py_RETURN_NONE;
}

static PyObject *
sim_run_until_complete(SimObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *proc_obj;
    double limit = Py_HUGE_VAL;
    static char *kwlist[] = {"process", "limit", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|d", kwlist,
                                     &proc_obj, &limit))
        return NULL;
    if (!PyObject_TypeCheck(proc_obj, &Event_Type)) {
        PyErr_Format(PyExc_TypeError,
                     "run_until_complete() requires a Process, got %.100s",
                     Py_TYPE(proc_obj)->tp_name);
        return NULL;
    }
    EventObject *proc = (EventObject *)proc_obj;
    PyObject *name = PyObject_TypeCheck(proc_obj, &Process_Type)
        ? ((ProcessObject *)proc_obj)->name : Py_None;
    while (!proc->triggered) {
        PyObject *ev;
        if (self->hlen && self->heap[0].when == self->now)
            ev = heap_pop(self);
        else if (self->nq_head < self->nq_len) {
            ev = self->nowq[self->nq_head++];
            if (self->nq_head == self->nq_len)
                self->nq_head = self->nq_len = 0;
        }
        else if (self->hlen) {
            if (self->heap[0].when > limit) {
                PyObject *l = float_obj(limit);
                raise_formatted(SimulationError,
                                "time limit %S exceeded waiting for %R",
                                l, name);
                Py_XDECREF(l);
                return NULL;
            }
            self->now = self->heap[0].when;
            ev = heap_pop(self);
        }
        else {
            raise_formatted(SimulationError, "deadlock: %R never completed",
                            name);
            return NULL;
        }
        if (sim_fire(self, ev) < 0)
            return NULL;
    }
    if (!proc->ok) {
        PyObject *exc = proc->value;
        if (exc != NULL && PyExceptionInstance_Check(exc))
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        else
            PyErr_SetString(SimulationError, "process failed without exception");
        return NULL;
    }
    return Py_NewRef(proc->value ? proc->value : Py_None);
}

static PyObject *
sim_get_queue_size(SimObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->hlen + (self->nq_len - self->nq_head));
}

static PyMemberDef sim_members[] = {
    {"now", T_DOUBLE, offsetof(SimObject, now), 0, "simulated time (us)"},
    {"steps", T_LONGLONG, offsetof(SimObject, steps), 0,
     "total events processed"},
    {"telemetry", T_OBJECT, offsetof(SimObject, telemetry), 0, NULL},
    {"active_process", T_OBJECT, offsetof(SimObject, active_process), 0, NULL},
    {"sanitizer", T_OBJECT, offsetof(SimObject, sanitizer), 0, NULL},
    {NULL},
};

static PyGetSetDef sim_getset[] = {
    {"queue_size", (getter)sim_get_queue_size, NULL, NULL, NULL},
    {NULL},
};

static PyMethodDef sim_methods[] = {
    {"event", (PyCFunction)sim_event_meth, METH_NOARGS, NULL},
    {"timeout", (PyCFunction)(void (*)(void))sim_timeout_meth,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"process", (PyCFunction)(void (*)(void))sim_process_meth,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"all_of", (PyCFunction)sim_all_of, METH_O, NULL},
    {"any_of", (PyCFunction)sim_any_of, METH_O, NULL},
    {"_schedule", (PyCFunction)(void (*)(void))sim_schedule_meth,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"step", (PyCFunction)sim_step, METH_NOARGS,
     "Process the single next event in the schedule."},
    {"run", (PyCFunction)(void (*)(void))sim_run,
     METH_VARARGS | METH_KEYWORDS,
     "Run until the queue drains or simulated time reaches `until`."},
    {"run_until_complete", (PyCFunction)(void (*)(void))sim_run_until_complete,
     METH_VARARGS | METH_KEYWORDS,
     "Run until `process` finishes; return its value or raise its error."},
    {NULL},
};

static PyTypeObject Simulator_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Simulator",
    .tp_basicsize = sizeof(SimObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The event loop (compiled core).  `now` is simulated time in us.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)sim_init,
    .tp_dealloc = (destructor)sim_dealloc,
    .tp_traverse = (traverseproc)sim_traverse,
    .tp_clear = (inquiry)sim_clear,
    .tp_members = sim_members,
    .tp_getset = sim_getset,
    .tp_methods = sim_methods,
};

/* ------------------------------------------------------------------ */
/* contention primitives (compiled halves of repro.sim.resources)      */
/*
 * Request/Resource/Store mirror the pure-python reference classes in
 * repro.sim.resources statement for statement; resources.py swaps them
 * in when this core is active.  Equivalence argument: the waiter heap
 * is keyed by the strict total order (priority, seq) — the same key
 * Request.__lt__ gives heapq — so grant order is identical, and every
 * grant goes through event_trigger with delay 0, i.e. the same
 * _schedule call the python classes make.
 */

static PyTypeObject Request_Type;
static PyTypeObject Resource_Type;
static PyTypeObject Store_Type;

typedef struct {
    EventObject ev;
    PyObject *resource;
    long long priority;
    unsigned long long seq;     /* _seq: grant-order tiebreak */
} RequestObject;

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    PyObject *name;
    long long capacity;
    unsigned long long seq;     /* ticket counter */
    PyObject *in_use;           /* set of granted RequestObjects */
    RequestObject **waiting;    /* min-heap by (priority, seq); owned refs */
    Py_ssize_t wlen, wcap;
} ResourceObject;

/* compacting FIFO of owned references (items / getters / putters) */
typedef struct {
    PyObject **buf;
    Py_ssize_t head, len, cap;
} ObjFifo;

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    PyObject *name;
    double capacity;
    ObjFifo items;
    ObjFifo getters;            /* pending get() events */
    ObjFifo putters;            /* (event, item) tuples waiting for room */
} StoreObject;

/* allocate a plain pending Event bound to `sim` (fast path, no init) */
static EventObject *
event_new_for(PyObject *sim)
{
    EventObject *e = (EventObject *)Event_Type.tp_alloc(&Event_Type, 0);
    if (e == NULL)
        return NULL;
    e->callbacks = PyList_New(0);
    if (e->callbacks == NULL) {
        Py_DECREF(e);
        return NULL;
    }
    e->sim = Py_NewRef(sim);
    e->value = Py_NewRef(Py_None);
    e->ok = 1;
    e->triggered = e->processed = e->defused = 0;
    return e;
}

/* ---- ObjFifo ----------------------------------------------------- */

static Py_ssize_t
objfifo_count(const ObjFifo *f)
{
    return f->len - f->head;
}

static int
objfifo_reserve(ObjFifo *f)
{
    if (f->head > 0) {
        memmove(f->buf, f->buf + f->head,
                (size_t)(f->len - f->head) * sizeof(PyObject *));
        f->len -= f->head;
        f->head = 0;
        if (f->len < f->cap)
            return 0;
    }
    Py_ssize_t cap = f->cap ? f->cap * 2 : 16;
    PyObject **b = PyMem_Realloc(f->buf, (size_t)cap * sizeof(PyObject *));
    if (b == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    f->buf = b;
    f->cap = cap;
    return 0;
}

static int
objfifo_push(ObjFifo *f, PyObject *o)
{
    if (f->len == f->cap && objfifo_reserve(f) < 0)
        return -1;
    f->buf[f->len++] = Py_NewRef(o);
    return 0;
}

/* pop the oldest entry; the caller owns the returned reference */
static PyObject *
objfifo_pop(ObjFifo *f)
{
    PyObject *o = f->buf[f->head++];
    if (f->head == f->len)
        f->head = f->len = 0;
    return o;
}

static void
objfifo_clear(ObjFifo *f)
{
    Py_ssize_t head = f->head, len = f->len;
    f->head = f->len = 0;
    for (Py_ssize_t i = head; i < len; i++)
        Py_CLEAR(f->buf[i]);
}

/* ---- Request ----------------------------------------------------- */

static int
request_lt(const RequestObject *a, const RequestObject *b)
{
    return a->priority < b->priority ||
           (a->priority == b->priority && a->seq < b->seq);
}

/* fast-path constructor used by Resource.request (skips tp_init) */
static RequestObject *
request_new_fast(ResourceObject *res, long long priority)
{
    RequestObject *req = (RequestObject *)Request_Type.tp_alloc(&Request_Type, 0);
    if (req == NULL)
        return NULL;
    req->ev.callbacks = PyList_New(0);
    if (req->ev.callbacks == NULL) {
        Py_DECREF(req);
        return NULL;
    }
    req->ev.sim = Py_NewRef(res->sim);
    req->ev.value = Py_NewRef(Py_None);
    req->ev.ok = 1;
    req->ev.triggered = req->ev.processed = req->ev.defused = 0;
    req->resource = Py_NewRef((PyObject *)res);
    req->priority = priority;
    req->seq = ++res->seq;
    return req;
}

static int
request_init(RequestObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *resource;
    long long priority = 0;
    static char *kwlist[] = {"resource", "priority", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|L", kwlist,
                                     &resource, &priority))
        return -1;
    PyObject *sim;
    unsigned long long seq;
    if (PyObject_TypeCheck(resource, &Resource_Type)) {
        ResourceObject *r = (ResourceObject *)resource;
        sim = Py_NewRef(r->sim);
        seq = ++r->seq;
    }
    else {
        sim = PyObject_GetAttrString(resource, "sim");
        if (sim == NULL)
            return -1;
        PyObject *ticket = PyObject_CallMethod(resource, "_ticket", NULL);
        if (ticket == NULL) {
            Py_DECREF(sim);
            return -1;
        }
        seq = PyLong_AsUnsignedLongLong(ticket);
        Py_DECREF(ticket);
        if (PyErr_Occurred()) {
            Py_DECREF(sim);
            return -1;
        }
    }
    PyObject *cb = PyList_New(0);
    if (cb == NULL) {
        Py_DECREF(sim);
        return -1;
    }
    EventObject *ev = &self->ev;
    Py_XSETREF(ev->sim, sim);
    Py_XSETREF(ev->callbacks, cb);
    Py_XSETREF(ev->value, Py_NewRef(Py_None));
    ev->ok = 1;
    ev->triggered = ev->processed = ev->defused = 0;
    Py_XSETREF(self->resource, Py_NewRef(resource));
    self->priority = priority;
    self->seq = seq;
    return 0;
}

static int
request_traverse(RequestObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->resource);
    return event_traverse(&self->ev, visit, arg);
}

static int
request_clear(RequestObject *self)
{
    Py_CLEAR(self->resource);
    return event_clear(&self->ev);
}

static void
request_dealloc(RequestObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    request_clear(self);
    tp->tp_free((PyObject *)self);
}

static PyObject *
request_richcompare(PyObject *a, PyObject *b, int op)
{
    if (op == Py_EQ || op == Py_NE) {
        int same = (a == b);
        return PyBool_FromLong(op == Py_EQ ? same : !same);
    }
    if (op != Py_LT ||
        !PyObject_TypeCheck(a, &Request_Type) ||
        !PyObject_TypeCheck(b, &Request_Type))
        Py_RETURN_NOTIMPLEMENTED;
    return PyBool_FromLong(request_lt((RequestObject *)a, (RequestObject *)b));
}

static int resource_cancel_impl(ResourceObject *res, PyObject *request);

static PyObject *
request_cancel(RequestObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->resource != NULL &&
        PyObject_TypeCheck(self->resource, &Resource_Type)) {
        if (resource_cancel_impl((ResourceObject *)self->resource,
                                 (PyObject *)self) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    return PyObject_CallMethod(self->resource ? self->resource : Py_None,
                               "_cancel", "O", self);
}

static PyMemberDef request_members[] = {
    {"resource", T_OBJECT, offsetof(RequestObject, resource), 0,
     "the Resource this request claims"},
    {"priority", T_LONGLONG, offsetof(RequestObject, priority), 0, NULL},
    {"_seq", T_ULONGLONG, offsetof(RequestObject, seq), 0, NULL},
    {NULL},
};

static PyMethodDef request_methods[] = {
    {"cancel", (PyCFunction)request_cancel, METH_NOARGS,
     "Withdraw an ungranted request (granted requests must release)."},
    {NULL},
};

static PyTypeObject Request_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Request",
    .tp_basicsize = sizeof(RequestObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A pending claim on a Resource; fires when granted.",
    .tp_base = &Event_Type,
    .tp_init = (initproc)request_init,
    .tp_dealloc = (destructor)request_dealloc,
    .tp_traverse = (traverseproc)request_traverse,
    .tp_clear = (inquiry)request_clear,
    .tp_richcompare = request_richcompare,
    .tp_members = request_members,
    .tp_methods = request_methods,
};

/* ---- Resource ---------------------------------------------------- */

static int
wheap_push(ResourceObject *r, RequestObject *req)
{
    if (r->wlen == r->wcap) {
        Py_ssize_t cap = r->wcap ? r->wcap * 2 : 16;
        RequestObject **w = PyMem_Realloc(
            r->waiting, (size_t)cap * sizeof(RequestObject *));
        if (w == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        r->waiting = w;
        r->wcap = cap;
    }
    RequestObject **heap = r->waiting;
    Py_ssize_t i = r->wlen++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (request_lt(heap[parent], req))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = (RequestObject *)Py_NewRef((PyObject *)req);
    return 0;
}

/* pop the minimum waiter; the caller owns the returned reference */
static RequestObject *
wheap_pop(ResourceObject *r)
{
    RequestObject **heap = r->waiting;
    RequestObject *top = heap[0];
    Py_ssize_t n = --r->wlen;
    if (n > 0) {
        RequestObject *last = heap[n];
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= n)
                break;
            Py_ssize_t right = child + 1;
            if (right < n && request_lt(heap[right], heap[child]))
                child = right;
            if (request_lt(last, heap[child]))
                break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = last;
    }
    return top;
}

static int
resource_init(ResourceObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *name = NULL;
    long long capacity = 1;
    static char *kwlist[] = {"sim", "capacity", "name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|LO", kwlist,
                                     &sim, &capacity, &name))
        return -1;
    if (capacity < 1) {
        raise_formatted(SimulationError,
                        "Resource capacity must be >= 1, got %lld", capacity);
        return -1;
    }
    PyObject *in_use = PySet_New(NULL);
    if (in_use == NULL)
        return -1;
    PyObject *nm = name != NULL ? Py_NewRef(name) : PyUnicode_FromString("");
    if (nm == NULL) {
        Py_DECREF(in_use);
        return -1;
    }
    Py_XSETREF(self->sim, Py_NewRef(sim));
    Py_XSETREF(self->name, nm);
    Py_XSETREF(self->in_use, in_use);
    self->capacity = capacity;
    self->seq = 0;
    Py_ssize_t wlen = self->wlen;   /* re-init: drop stale waiters */
    self->wlen = 0;
    for (Py_ssize_t i = 0; i < wlen; i++)
        Py_CLEAR(self->waiting[i]);
    return 0;
}

static int
resource_traverse(ResourceObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->name);
    Py_VISIT(self->in_use);
    for (Py_ssize_t i = 0; i < self->wlen; i++)
        Py_VISIT((PyObject *)self->waiting[i]);
    return 0;
}

static int
resource_clear(ResourceObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->name);
    Py_CLEAR(self->in_use);
    Py_ssize_t wlen = self->wlen;
    self->wlen = 0;
    for (Py_ssize_t i = 0; i < wlen; i++)
        Py_CLEAR(self->waiting[i]);
    return 0;
}

static void
resource_dealloc(ResourceObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    resource_clear(self);
    PyMem_Free(self->waiting);
    tp->tp_free((PyObject *)self);
}

/* claim one unit: granted now (scheduled at delay 0) or queued.  The
 * caller owns the returned request. */
static RequestObject *
resource_request_impl(ResourceObject *self, long long priority)
{
    RequestObject *req = request_new_fast(self, priority);
    if (req == NULL)
        return NULL;
    if (PySet_GET_SIZE(self->in_use) < self->capacity && self->wlen == 0) {
        if (PySet_Add(self->in_use, (PyObject *)req) < 0 ||
            event_trigger(&req->ev, (PyObject *)self, 1, 0.0) < 0) {
            Py_DECREF(req);
            return NULL;
        }
    }
    else if (wheap_push(self, req) < 0) {
        Py_DECREF(req);
        return NULL;
    }
    return req;
}

/* return a granted unit and wake the next waiter.  0/-1. */
static int
resource_release_impl(ResourceObject *self, PyObject *request)
{
    int had = PySet_Discard(self->in_use, request);
    if (had < 0)
        return -1;
    if (had == 0) {
        if (self->name != NULL && PyUnicode_Check(self->name) &&
            PyUnicode_GET_LENGTH(self->name) > 0)
            raise_formatted(SimulationError,
                            "release of request not held on %U", self->name);
        else
            PyErr_SetString(SimulationError,
                            "release of request not held on resource");
        return -1;
    }
    while (self->wlen > 0) {
        RequestObject *nxt = wheap_pop(self);
        if (nxt->ev.triggered) {   /* cancelled: lazy removal */
            Py_DECREF(nxt);
            continue;
        }
        if (PySet_Add(self->in_use, (PyObject *)nxt) < 0 ||
            event_trigger(&nxt->ev, (PyObject *)self, 1, 0.0) < 0) {
            Py_DECREF(nxt);
            return -1;
        }
        Py_DECREF(nxt);
        break;
    }
    return 0;
}

static PyObject *
resource_request(ResourceObject *self, PyObject *const *args, Py_ssize_t nargs,
                 PyObject *kwnames)
{
    long long priority = 0;
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "request() takes at most 1 argument");
        return NULL;
    }
    PyObject *prio_obj = nargs == 1 ? args[0] : NULL;
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            if (PyUnicode_CompareWithASCIIString(name, "priority") == 0) {
                if (prio_obj != NULL) {
                    PyErr_SetString(PyExc_TypeError,
                                    "request() got multiple values for 'priority'");
                    return NULL;
                }
                prio_obj = args[nargs + i];
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "request() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    if (prio_obj != NULL) {
        priority = PyLong_AsLongLong(prio_obj);
        if (priority == -1 && PyErr_Occurred())
            return NULL;
    }
    return (PyObject *)resource_request_impl(self, priority);
}

static PyObject *
resource_release(ResourceObject *self, PyObject *request)
{
    if (resource_release_impl(self, request) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
resource_cancel_impl(ResourceObject *self, PyObject *request)
{
    int granted = PySet_Contains(self->in_use, request);
    if (granted < 0)
        return -1;
    if (granted) {
        PyErr_SetString(SimulationError,
                        "cancel of a granted request; use release()");
        return -1;
    }
    if (!PyObject_TypeCheck(request, &Event_Type)) {
        PyErr_Format(PyExc_TypeError, "cancel of a non-request %.100s",
                     Py_TYPE(request)->tp_name);
        return -1;
    }
    EventObject *ev = (EventObject *)request;
    if (!ev->triggered) {
        PyObject *exc = PyObject_CallFunction(SimulationError, "s",
                                              "request cancelled");
        if (exc == NULL)
            return -1;
        int rc = event_trigger(ev, exc, 0, 0.0);
        Py_DECREF(exc);
        if (rc < 0)
            return -1;
        ev->defused = 1;
    }
    return 0;
}

static PyObject *
resource_cancel_meth(ResourceObject *self, PyObject *request)
{
    if (resource_cancel_impl(self, request) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
resource_ticket(ResourceObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromUnsignedLongLong(++self->seq);
}

static PyObject *
resource_get_count(ResourceObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->in_use ? PySet_GET_SIZE(self->in_use) : 0);
}

static PyObject *
resource_get_queue_length(ResourceObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->wlen);
}

static PyObject *resource_hold(ResourceObject *self, PyObject *const *args,
                               Py_ssize_t nargs);

static PyMemberDef resource_members[] = {
    {"sim", T_OBJECT, offsetof(ResourceObject, sim), 0, NULL},
    {"capacity", T_LONGLONG, offsetof(ResourceObject, capacity), 0, NULL},
    {"name", T_OBJECT, offsetof(ResourceObject, name), 0, NULL},
    {NULL},
};

static PyGetSetDef resource_getset[] = {
    {"count", (getter)resource_get_count, NULL, "units currently granted", NULL},
    {"queue_length", (getter)resource_get_queue_length, NULL, NULL, NULL},
    {NULL},
};

static PyMethodDef resource_methods[] = {
    {"request", (PyCFunction)(void (*)(void))resource_request,
     METH_FASTCALL | METH_KEYWORDS,
     "Claim one unit; returned event fires when the unit is granted."},
    {"release", (PyCFunction)resource_release, METH_O,
     "Return a granted unit and wake the next waiter."},
    {"hold", (PyCFunction)(void (*)(void))resource_hold, METH_FASTCALL,
     "hold(delay, priority=0, meters=(), partner=None, busy=None): "
     "iterator for `yield from` that claims a unit, holds it for each "
     "delay and releases it (see repro.sim.resources.Resource.hold)."},
    {"_cancel", (PyCFunction)resource_cancel_meth, METH_O, NULL},
    {"_ticket", (PyCFunction)resource_ticket, METH_NOARGS, NULL},
    {NULL},
};

static PyTypeObject Resource_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Resource",
    .tp_basicsize = sizeof(ResourceObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Counted semaphore with FIFO/priority queueing (compiled core).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)resource_init,
    .tp_dealloc = (destructor)resource_dealloc,
    .tp_traverse = (traverseproc)resource_traverse,
    .tp_clear = (inquiry)resource_clear,
    .tp_members = resource_members,
    .tp_getset = resource_getset,
    .tp_methods = resource_methods,
};

/* ---- Store ------------------------------------------------------- */

static int
store_init(StoreObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *name = NULL;
    double capacity = Py_HUGE_VAL;
    static char *kwlist[] = {"sim", "capacity", "name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|dO", kwlist,
                                     &sim, &capacity, &name))
        return -1;
    PyObject *nm = name != NULL ? Py_NewRef(name) : PyUnicode_FromString("");
    if (nm == NULL)
        return -1;
    Py_XSETREF(self->sim, Py_NewRef(sim));
    Py_XSETREF(self->name, nm);
    self->capacity = capacity;
    objfifo_clear(&self->items);     /* re-init: drop stale contents */
    objfifo_clear(&self->getters);
    objfifo_clear(&self->putters);
    return 0;
}

static int
store_traverse(StoreObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->name);
    for (Py_ssize_t i = self->items.head; i < self->items.len; i++)
        Py_VISIT(self->items.buf[i]);
    for (Py_ssize_t i = self->getters.head; i < self->getters.len; i++)
        Py_VISIT(self->getters.buf[i]);
    for (Py_ssize_t i = self->putters.head; i < self->putters.len; i++)
        Py_VISIT(self->putters.buf[i]);
    return 0;
}

static int
store_clear(StoreObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->name);
    objfifo_clear(&self->items);
    objfifo_clear(&self->getters);
    objfifo_clear(&self->putters);
    return 0;
}

static void
store_dealloc(StoreObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    store_clear(self);
    PyMem_Free(self->items.buf);
    PyMem_Free(self->getters.buf);
    PyMem_Free(self->putters.buf);
    tp->tp_free((PyObject *)self);
}

static PyObject *
store_put(StoreObject *self, PyObject *item)
{
    EventObject *ev = event_new_for(self->sim);
    if (ev == NULL)
        return NULL;
    if (objfifo_count(&self->getters) > 0) {
        PyObject *getter = objfifo_pop(&self->getters);
        int rc = event_trigger((EventObject *)getter, item, 1, 0.0);
        Py_DECREF(getter);
        if (rc < 0 || event_trigger(ev, Py_None, 1, 0.0) < 0) {
            Py_DECREF(ev);
            return NULL;
        }
    }
    else if ((double)objfifo_count(&self->items) < self->capacity) {
        if (objfifo_push(&self->items, item) < 0 ||
            event_trigger(ev, Py_None, 1, 0.0) < 0) {
            Py_DECREF(ev);
            return NULL;
        }
    }
    else {
        PyObject *pair = PyTuple_Pack(2, (PyObject *)ev, item);
        if (pair == NULL || objfifo_push(&self->putters, pair) < 0) {
            Py_XDECREF(pair);
            Py_DECREF(ev);
            return NULL;
        }
        Py_DECREF(pair);
    }
    return (PyObject *)ev;
}

/* a slot opened: move the oldest blocked putter's item in.  0/-1. */
static int
store_refill_from_putters(StoreObject *self)
{
    if (objfifo_count(&self->putters) == 0)
        return 0;
    PyObject *pair = objfifo_pop(&self->putters);
    int rc = objfifo_push(&self->items, PyTuple_GET_ITEM(pair, 1));
    if (rc == 0)
        rc = event_trigger((EventObject *)PyTuple_GET_ITEM(pair, 0),
                           Py_None, 1, 0.0);
    Py_DECREF(pair);
    return rc;
}

static PyObject *
store_get(StoreObject *self, PyObject *Py_UNUSED(ignored))
{
    EventObject *ev = event_new_for(self->sim);
    if (ev == NULL)
        return NULL;
    if (objfifo_count(&self->items) > 0) {
        PyObject *item = objfifo_pop(&self->items);
        if (store_refill_from_putters(self) < 0) {
            Py_DECREF(item);
            Py_DECREF(ev);
            return NULL;
        }
        int rc = event_trigger(ev, item, 1, 0.0);
        Py_DECREF(item);
        if (rc < 0) {
            Py_DECREF(ev);
            return NULL;
        }
    }
    else if (objfifo_push(&self->getters, (PyObject *)ev) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return (PyObject *)ev;
}

static PyObject *
store_try_get(StoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (objfifo_count(&self->items) == 0)
        return PyTuple_Pack(2, Py_False, Py_None);
    PyObject *item = objfifo_pop(&self->items);
    if (store_refill_from_putters(self) < 0) {
        Py_DECREF(item);
        return NULL;
    }
    PyObject *out = PyTuple_Pack(2, Py_True, item);
    Py_DECREF(item);
    return out;
}

static Py_ssize_t
store_length(StoreObject *self)
{
    return objfifo_count(&self->items);
}

static PyObject *
store_get_items(StoreObject *self, void *closure)
{
    Py_ssize_t n = objfifo_count(&self->items);
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++)
        PyTuple_SET_ITEM(t, i,
                         Py_NewRef(self->items.buf[self->items.head + i]));
    return t;
}

static PySequenceMethods store_as_sequence = {
    .sq_length = (lenfunc)store_length,
};

static PyMemberDef store_members[] = {
    {"sim", T_OBJECT, offsetof(StoreObject, sim), 0, NULL},
    {"capacity", T_DOUBLE, offsetof(StoreObject, capacity), 0, NULL},
    {"name", T_OBJECT, offsetof(StoreObject, name), 0, NULL},
    {NULL},
};

static PyGetSetDef store_getset[] = {
    {"items", (getter)store_get_items, NULL,
     "current contents, oldest first", NULL},
    {NULL},
};

static PyMethodDef store_methods[] = {
    {"put", (PyCFunction)store_put, METH_O,
     "Deposit `item`; fires immediately unless the store is full."},
    {"get", (PyCFunction)store_get, METH_NOARGS,
     "Withdraw the oldest item; fires (with the item) when available."},
    {"try_get", (PyCFunction)store_try_get, METH_NOARGS,
     "Non-blocking withdraw: (True, item) or (False, None)."},
    {NULL},
};

static PyTypeObject Store_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Store",
    .tp_basicsize = sizeof(StoreObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "FIFO of items with blocking get and optionally bounded put.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)store_init,
    .tp_dealloc = (destructor)store_dealloc,
    .tp_traverse = (traverseproc)store_traverse,
    .tp_clear = (inquiry)store_clear,
    .tp_as_sequence = &store_as_sequence,
    .tp_members = store_members,
    .tp_getset = store_getset,
    .tp_methods = store_methods,
};

/* ------------------------------------------------------------------ */
/* instrumentation (compiled halves of repro.sim.trace)                */

typedef struct {
    PyObject_HEAD
    PyObject *name;
    double value;
    long long events;
} CounterObject;

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    PyObject *name;
    double capacity, level, last_change, area, t0;
} MeterObject;

static PyTypeObject Counter_Type;
static PyTypeObject Meter_Type;

/* read sim.now: direct struct access for the compiled Simulator */
static int
get_sim_now(PyObject *sim, double *out)
{
    if (PyObject_TypeCheck(sim, &Simulator_Type)) {
        *out = ((SimObject *)sim)->now;
        return 0;
    }
    PyObject *n = PyObject_GetAttrString(sim, "now");
    if (n == NULL)
        return -1;
    *out = PyFloat_AsDouble(n);
    Py_DECREF(n);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* ---- Counter ----------------------------------------------------- */

static int
counter_init(CounterObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *name = NULL;
    static char *kwlist[] = {"name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &name))
        return -1;
    PyObject *nm = name != NULL ? Py_NewRef(name) : PyUnicode_FromString("");
    if (nm == NULL)
        return -1;
    Py_XSETREF(self->name, nm);
    self->value = 0.0;
    self->events = 0;
    return 0;
}

static int
counter_traverse(CounterObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->name);
    return 0;
}

static int
counter_clear(CounterObject *self)
{
    Py_CLEAR(self->name);
    return 0;
}

static void
counter_dealloc(CounterObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    counter_clear(self);
    tp->tp_free((PyObject *)self);
}

static int
counter_add_impl(CounterObject *self, double amount)
{
    if (amount < 0.0) {
        raise_formatted(SimulationError, "Counter %R decremented", self->name);
        return -1;
    }
    self->value += amount;
    self->events++;
    return 0;
}

static PyObject *
counter_add(CounterObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double amount = 1.0;
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "add() takes at most 1 argument");
        return NULL;
    }
    if (nargs == 1) {
        amount = PyFloat_AsDouble(args[0]);
        if (amount == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (counter_add_impl(self, amount) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
counter_rate(CounterObject *self, PyObject *elapsed_obj)
{
    double elapsed = PyFloat_AsDouble(elapsed_obj);
    if (elapsed == -1.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(elapsed > 0.0 ? self->value / elapsed : 0.0);
}

static PyMemberDef counter_members[] = {
    {"name", T_OBJECT, offsetof(CounterObject, name), 0, NULL},
    {"value", T_DOUBLE, offsetof(CounterObject, value), 0, NULL},
    {"events", T_LONGLONG, offsetof(CounterObject, events), 0, NULL},
    {NULL},
};

static PyMethodDef counter_methods[] = {
    {"add", (PyCFunction)(void (*)(void))counter_add, METH_FASTCALL,
     "Tally `amount` (default 1.0); negative amounts are rejected."},
    {"rate", (PyCFunction)counter_rate, METH_O,
     "Value per microsecond over `elapsed` microseconds."},
    {NULL},
};

static PyTypeObject Counter_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Counter",
    .tp_basicsize = sizeof(CounterObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A monotonically growing tally (compiled core).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)counter_init,
    .tp_dealloc = (destructor)counter_dealloc,
    .tp_traverse = (traverseproc)counter_traverse,
    .tp_clear = (inquiry)counter_clear,
    .tp_members = counter_members,
    .tp_methods = counter_methods,
};

/* ---- UtilizationMeter -------------------------------------------- */

static int
meter_init(MeterObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *name = NULL;
    double capacity;
    static char *kwlist[] = {"sim", "capacity", "name", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Od|O", kwlist,
                                     &sim, &capacity, &name))
        return -1;
    if (capacity <= 0.0) {
        PyErr_SetString(SimulationError,
                        "UtilizationMeter capacity must be positive");
        return -1;
    }
    double now;
    if (get_sim_now(sim, &now) < 0)
        return -1;
    PyObject *nm = name != NULL ? Py_NewRef(name) : PyUnicode_FromString("");
    if (nm == NULL)
        return -1;
    Py_XSETREF(self->sim, Py_NewRef(sim));
    Py_XSETREF(self->name, nm);
    self->capacity = capacity;
    self->level = 0.0;
    self->last_change = now;
    self->area = 0.0;
    self->t0 = now;
    return 0;
}

static int
meter_traverse(MeterObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->name);
    return 0;
}

static int
meter_clear(MeterObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->name);
    return 0;
}

static void
meter_dealloc(MeterObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    meter_clear(self);
    tp->tp_free((PyObject *)self);
}

static int
meter_settle(MeterObject *self)
{
    double now;
    if (get_sim_now(self->sim, &now) < 0)
        return -1;
    self->area += self->level * (now - self->last_change);
    self->last_change = now;
    return 0;
}

static int
meter_parse_units(const char *meth, PyObject *const *args, Py_ssize_t nargs,
                  double *units)
{
    *units = 1.0;
    if (nargs > 1) {
        PyErr_Format(PyExc_TypeError, "%s() takes at most 1 argument", meth);
        return -1;
    }
    if (nargs == 1) {
        *units = PyFloat_AsDouble(args[0]);
        if (*units == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static int
meter_acquire_impl(MeterObject *self, double units)
{
    if (meter_settle(self) < 0)
        return -1;
    self->level += units;
    if (self->level > self->capacity + 1e-9) {
        PyObject *lv = float_obj(self->level);
        PyObject *cap = float_obj(self->capacity);
        if (lv != NULL && cap != NULL)
            raise_formatted(SimulationError,
                            "UtilizationMeter %R over capacity: %S > %S",
                            self->name, lv, cap);
        Py_XDECREF(lv);
        Py_XDECREF(cap);
        return -1;
    }
    return 0;
}

static int
meter_release_impl(MeterObject *self, double units)
{
    if (meter_settle(self) < 0)
        return -1;
    self->level -= units;
    if (self->level < -1e-9) {
        raise_formatted(SimulationError,
                        "UtilizationMeter %R released below zero", self->name);
        return -1;
    }
    return 0;
}

static PyObject *
meter_acquire(MeterObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double units;
    if (meter_parse_units("acquire", args, nargs, &units) < 0 ||
        meter_acquire_impl(self, units) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
meter_release(MeterObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double units;
    if (meter_parse_units("release", args, nargs, &units) < 0 ||
        meter_release_impl(self, units) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
meter_reset_window(MeterObject *self, PyObject *Py_UNUSED(ignored))
{
    if (meter_settle(self) < 0)
        return NULL;
    self->area = 0.0;
    self->t0 = self->last_change;
    Py_RETURN_NONE;
}

static PyObject *
meter_busy_time(MeterObject *self, PyObject *Py_UNUSED(ignored))
{
    if (meter_settle(self) < 0)
        return NULL;
    return PyFloat_FromDouble(self->area);
}

static PyObject *
meter_utilization(MeterObject *self, PyObject *Py_UNUSED(ignored))
{
    if (meter_settle(self) < 0)
        return NULL;
    double elapsed = self->last_change - self->t0;
    if (elapsed <= 0.0)
        return PyFloat_FromDouble(0.0);
    return PyFloat_FromDouble(self->area / (elapsed * self->capacity));
}

static PyMemberDef meter_members[] = {
    {"sim", T_OBJECT, offsetof(MeterObject, sim), 0, NULL},
    {"capacity", T_DOUBLE, offsetof(MeterObject, capacity), 0, NULL},
    {"name", T_OBJECT, offsetof(MeterObject, name), 0, NULL},
    {"_level", T_DOUBLE, offsetof(MeterObject, level), 0, NULL},
    {"_last_change", T_DOUBLE, offsetof(MeterObject, last_change), 0, NULL},
    {"_area", T_DOUBLE, offsetof(MeterObject, area), 0, NULL},
    {"_t0", T_DOUBLE, offsetof(MeterObject, t0), 0, NULL},
    {NULL},
};

static PyMethodDef meter_methods[] = {
    {"acquire", (PyCFunction)(void (*)(void))meter_acquire, METH_FASTCALL,
     "Raise the busy level by `units` (default 1.0)."},
    {"release", (PyCFunction)(void (*)(void))meter_release, METH_FASTCALL,
     "Lower the busy level by `units` (default 1.0)."},
    {"reset_window", (PyCFunction)meter_reset_window, METH_NOARGS,
     "Start a fresh measurement window at the current instant."},
    {"busy_time", (PyCFunction)meter_busy_time, METH_NOARGS,
     "Integrated unit-microseconds of busy time in the window."},
    {"utilization", (PyCFunction)meter_utilization, METH_NOARGS,
     "Mean fraction of capacity busy over the window, in [0, 1]."},
    {NULL},
};

static PyTypeObject Meter_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.UtilizationMeter",
    .tp_basicsize = sizeof(MeterObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Time-weighted integral of a busy-unit level (compiled core).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)meter_init,
    .tp_dealloc = (destructor)meter_dealloc,
    .tp_traverse = (traverseproc)meter_traverse,
    .tp_clear = (inquiry)meter_clear,
    .tp_members = meter_members,
    .tp_methods = meter_methods,
};

/* ------------------------------------------------------------------ */
/* Resource.hold: the compiled timed claim                             */
/*
 * The reference is the generator Resource.hold in repro.sim.resources;
 * this iterator is that generator's state machine, one state per yield:
 *
 *   START    nothing claimed yet (a just-started generator)
 *   CLAIM    waiting for the unit's Request
 *   PARTNER  waiting for the partner's Request (unit held)
 *   HOLD     waiting for the delay's Timeout (unit, partner, meters held)
 *   DONE     finished, failed or closed
 *
 * Each state yields the event the generator yields at that point, and
 * requests, grants, meter settles and releases happen in the same
 * order, so schedules (and the event count) are identical to the
 * reference and to the request/timeout/release pattern written out by
 * hand.  Driven through am_send (PyIter_Send: the compiled Process, and
 * `yield from` on 3.10/3.11) or tp_iternext/send (`yield from` on
 * 3.12+); throw and close release what the current state holds.
 */

enum { HOLD_START, HOLD_CLAIM, HOLD_PARTNER, HOLD_HOLD, HOLD_DONE };

static PyTypeObject Hold_Type;
static PyObject *str_timeout;       /* interned "timeout" */

typedef struct {
    PyObject_HEAD
    ResourceObject *res;
    ResourceObject *partner;    /* NULL: no partner */
    PyObject *meters;           /* tuple of UtilizationMeters, in order */
    CounterObject *busy;        /* charged per finished cycle, or NULL */
    PyObject *delays;           /* one delay, or a list/tuple of them */
    Py_ssize_t next;            /* index of the next cycle's delay */
    long long priority;
    RequestObject *req;         /* the unit's claim while one is live */
    RequestObject *preq;        /* the partner's claim while one is live */
    double delay;               /* the current cycle's delay */
    char is_seq, state;
} HoldObject;

/* a Timeout `delay` us from now, made the way `sim.timeout(delay)` makes
 * it: directly on the compiled Simulator, else through the simulator's
 * own method (the schedule-perturbation checker's python Simulator) */
static PyObject *
timeout_make(PyObject *sim, double delay, PyObject *delay_obj)
{
    if (Py_TYPE(sim) != &Simulator_Type)
        return PyObject_CallMethodOneArg(sim, str_timeout, delay_obj);
    if (delay < 0.0) {
        raise_formatted(SimulationError, "negative timeout delay %R",
                        delay_obj);
        return NULL;
    }
    TimeoutObject *t = (TimeoutObject *)Timeout_Type.tp_alloc(&Timeout_Type, 0);
    if (t == NULL)
        return NULL;
    EventObject *ev = &t->ev;
    ev->callbacks = PyList_New(0);
    if (ev->callbacks == NULL) {
        Py_DECREF(t);
        return NULL;
    }
    ev->sim = Py_NewRef(sim);
    ev->value = Py_NewRef(Py_None);
    ev->ok = 1;
    ev->triggered = 1;   /* a timeout is born fired */
    ev->processed = ev->defused = 0;
    t->delay = delay;
    if (schedule_c((SimObject *)sim, (PyObject *)t, delay) < 0) {
        Py_DECREF(t);
        return NULL;
    }
    return (PyObject *)t;
}

/* give back a claim whose waiter is leaving: release it if granted,
 * else cancel it (Resource._withdraw) */
static int
resource_withdraw(ResourceObject *res, RequestObject *req)
{
    int granted = PySet_Contains(res->in_use, (PyObject *)req);
    if (granted < 0)
        return -1;
    return granted ? resource_release_impl(res, (PyObject *)req)
                   : resource_cancel_impl(res, (PyObject *)req);
}

/* the reference's `finally`: meters, partner, unit.  A failing release
 * stops the rest, as an exception in the finally block does. */
static int
hold_release_all(HoldObject *self)
{
    PyObject *meters = self->meters;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(meters); i++)
        if (meter_release_impl((MeterObject *)PyTuple_GET_ITEM(meters, i),
                               1.0) < 0)
            return -1;
    if (self->partner != NULL) {
        RequestObject *preq = self->preq;
        self->preq = NULL;
        int rc = resource_release_impl(self->partner, (PyObject *)preq);
        Py_DECREF(preq);
        if (rc < 0)
            return -1;
    }
    RequestObject *req = self->req;
    self->req = NULL;
    int rc = resource_release_impl(self->res, (PyObject *)req);
    Py_DECREF(req);
    return rc;
}

/* a throw or close reached the current yield: undo what it holds */
static int
hold_abort(HoldObject *self)
{
    int state = self->state;
    self->state = HOLD_DONE;
    int rc = 0;
    if (state == HOLD_CLAIM)
        rc = resource_withdraw(self->res, self->req);
    else if (state == HOLD_PARTNER) {
        rc = resource_withdraw(self->partner, self->preq);
        if (rc == 0)
            rc = resource_release_impl(self->res, (PyObject *)self->req);
    }
    else if (state == HOLD_HOLD)
        rc = hold_release_all(self);
    Py_CLEAR(self->req);
    Py_CLEAR(self->preq);
    return rc;
}

static PySendResult
hold_am_send(HoldObject *self, PyObject *arg, PyObject **presult)
{
    *presult = NULL;
    switch (self->state) {
    case HOLD_START:
        if (arg != Py_None) {
            PyErr_SetString(PyExc_TypeError,
                            "can't send non-None value to a just-started "
                            "generator");
            return PYGEN_ERROR;
        }
        goto claim;
    case HOLD_CLAIM:
        if (self->partner != NULL) {
            self->preq = resource_request_impl(self->partner, self->priority);
            if (self->preq == NULL)
                goto fail;
            self->state = HOLD_PARTNER;
            *presult = Py_NewRef((PyObject *)self->preq);
            return PYGEN_NEXT;
        }
        goto hold;
    case HOLD_PARTNER:
        goto hold;
    case HOLD_HOLD:
        self->state = HOLD_DONE;
        if (hold_release_all(self) < 0)
            goto fail;
        if (self->busy != NULL &&
            counter_add_impl(self->busy, self->delay) < 0)
            goto fail;
        goto claim;
    default:
        *presult = Py_NewRef(Py_None);
        return PYGEN_RETURN;
    }
claim:
    if (self->next >= (self->is_seq ? PySequence_Fast_GET_SIZE(self->delays)
                                    : 1)) {
        self->state = HOLD_DONE;
        *presult = Py_NewRef(Py_None);
        return PYGEN_RETURN;
    }
    self->req = resource_request_impl(self->res, self->priority);
    if (self->req == NULL)
        goto fail;
    self->state = HOLD_CLAIM;
    *presult = Py_NewRef((PyObject *)self->req);
    return PYGEN_NEXT;
hold:
    self->state = HOLD_DONE;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(self->meters); i++)
        if (meter_acquire_impl(
                (MeterObject *)PyTuple_GET_ITEM(self->meters, i), 1.0) < 0)
            goto fail;
    {
        PyObject *item = self->is_seq
            ? PySequence_Fast_GET_ITEM(self->delays, self->next)
            : self->delays;
        self->next++;
        self->delay = PyFloat_AsDouble(item);
        PyObject *timer = (self->delay == -1.0 && PyErr_Occurred())
            ? NULL : timeout_make(self->res->sim, self->delay, item);
        if (timer == NULL) {
            /* the reference's `finally` runs on the way out */
            PyObject *et, *ev, *etb;
            PyErr_Fetch(&et, &ev, &etb);
            if (hold_release_all(self) < 0) {
                Py_XDECREF(et);
                Py_XDECREF(ev);
                Py_XDECREF(etb);
            }
            else
                PyErr_Restore(et, ev, etb);
            goto fail;
        }
        self->state = HOLD_HOLD;
        *presult = timer;
        return PYGEN_NEXT;
    }
fail:
    self->state = HOLD_DONE;
    Py_CLEAR(self->req);
    Py_CLEAR(self->preq);
    return PYGEN_ERROR;
}

static PyObject *
hold_iternext(HoldObject *self)
{
    PyObject *result;
    PySendResult sr = hold_am_send(self, Py_None, &result);
    if (sr == PYGEN_NEXT)
        return result;
    Py_XDECREF(result);   /* PYGEN_RETURN: exhausted, value None */
    return NULL;
}

static PyObject *
hold_send(HoldObject *self, PyObject *arg)
{
    PyObject *result;
    PySendResult sr = hold_am_send(self, arg, &result);
    if (sr == PYGEN_NEXT)
        return result;
    if (sr == PYGEN_RETURN) {
        Py_DECREF(result);
        PyErr_SetNone(PyExc_StopIteration);
    }
    return NULL;
}

/* throw(typ[, val[, tb]]), the generator signature `yield from` uses */
static PyObject *
hold_throw(HoldObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError, "throw expected 1 to 3 arguments");
        return NULL;
    }
    PyObject *typ = args[0];
    PyObject *val = nargs > 1 ? args[1] : Py_None;
    PyObject *tb = nargs > 2 ? args[2] : Py_None;
    if (!PyExceptionInstance_Check(typ) && !PyExceptionClass_Check(typ)) {
        PyErr_Format(PyExc_TypeError,
                     "exceptions must be classes or instances deriving from "
                     "BaseException, not %s", Py_TYPE(typ)->tp_name);
        return NULL;
    }
    if (hold_abort(self) < 0)
        return NULL;
    if (PyExceptionInstance_Check(typ))
        PyErr_SetObject((PyObject *)Py_TYPE(typ), typ);
    else
        PyErr_SetObject(typ, val);
    if (tb != Py_None) {
        PyObject *et, *ev, *etb;
        PyErr_Fetch(&et, &ev, &etb);
        PyErr_NormalizeException(&et, &ev, &etb);
        Py_XDECREF(etb);
        PyErr_Restore(et, ev, Py_NewRef(tb));
    }
    return NULL;
}

static PyObject *
hold_close(HoldObject *self, PyObject *Py_UNUSED(ignored))
{
    if (hold_abort(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
hold_traverse(HoldObject *self, visitproc visit, void *arg)
{
    Py_VISIT((PyObject *)self->res);
    Py_VISIT((PyObject *)self->partner);
    Py_VISIT(self->meters);
    Py_VISIT((PyObject *)self->busy);
    Py_VISIT(self->delays);
    Py_VISIT((PyObject *)self->req);
    Py_VISIT((PyObject *)self->preq);
    return 0;
}

static int
hold_clear(HoldObject *self)
{
    Py_CLEAR(self->res);
    Py_CLEAR(self->partner);
    Py_CLEAR(self->meters);
    Py_CLEAR(self->busy);
    Py_CLEAR(self->delays);
    Py_CLEAR(self->req);
    Py_CLEAR(self->preq);
    self->state = HOLD_DONE;
    return 0;
}

static void
hold_dealloc(HoldObject *self)
{
    PyObject_GC_UnTrack(self);
    hold_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
hold_get_name(HoldObject *self, void *closure)
{
    return PyUnicode_FromString("hold");
}

static PyObject *
resource_hold(ResourceObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 5) {
        PyErr_Format(PyExc_TypeError,
                     "hold() takes 1 to 5 positional arguments (%zd given)",
                     nargs);
        return NULL;
    }
    long long priority = 0;
    if (nargs > 1) {
        priority = PyLong_AsLongLong(args[1]);
        if (priority == -1 && PyErr_Occurred())
            return NULL;
    }
    PyObject *meters = nargs > 2 ? args[2] : NULL;
    if (meters != NULL) {
        int ok = PyTuple_Check(meters);
        for (Py_ssize_t i = 0; ok && i < PyTuple_GET_SIZE(meters); i++)
            ok = PyObject_TypeCheck(PyTuple_GET_ITEM(meters, i), &Meter_Type);
        if (!ok) {
            PyErr_SetString(PyExc_TypeError,
                            "hold() meters must be a tuple of UtilizationMeters");
            return NULL;
        }
    }
    PyObject *partner = nargs > 3 && args[3] != Py_None ? args[3] : NULL;
    if (partner != NULL && !PyObject_TypeCheck(partner, &Resource_Type)) {
        PyErr_Format(PyExc_TypeError,
                     "hold() partner must be a Resource, not %s",
                     Py_TYPE(partner)->tp_name);
        return NULL;
    }
    PyObject *busy = nargs > 4 && args[4] != Py_None ? args[4] : NULL;
    if (busy != NULL && !PyObject_TypeCheck(busy, &Counter_Type)) {
        PyErr_Format(PyExc_TypeError, "hold() busy must be a Counter, not %s",
                     Py_TYPE(busy)->tp_name);
        return NULL;
    }
    HoldObject *h = PyObject_GC_New(HoldObject, &Hold_Type);
    if (h == NULL)
        return NULL;
    h->res = (ResourceObject *)Py_NewRef((PyObject *)self);
    h->partner = (ResourceObject *)Py_XNewRef(partner);
    h->meters = meters != NULL ? Py_NewRef(meters) : PyTuple_New(0);
    h->busy = (CounterObject *)Py_XNewRef(busy);
    h->delays = Py_NewRef(args[0]);
    h->is_seq = (char)(PyList_Check(args[0]) || PyTuple_Check(args[0]));
    h->next = 0;
    h->priority = priority;
    h->req = h->preq = NULL;
    h->delay = 0.0;
    h->state = HOLD_START;
    if (h->meters == NULL) {
        Py_DECREF(h);
        return NULL;
    }
    PyObject_GC_Track((PyObject *)h);
    return (PyObject *)h;
}

static PyAsyncMethods hold_as_async = {
    .am_send = (sendfunc)hold_am_send,
};

static PyMethodDef hold_methods[] = {
    {"send", (PyCFunction)hold_send, METH_O,
     "Resume with a value; the next event to wait on."},
    {"throw", (PyCFunction)(void (*)(void))hold_throw, METH_FASTCALL,
     "Raise an exception at the current wait, releasing what it holds."},
    {"close", (PyCFunction)hold_close, METH_NOARGS,
     "Finish early, releasing what the current wait holds."},
    {NULL},
};

static PyGetSetDef hold_getset[] = {
    {"__name__", (getter)hold_get_name, NULL, NULL, NULL},
    {NULL},
};

static PyTypeObject Hold_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.Hold",
    .tp_basicsize = sizeof(HoldObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A timed claim on a Resource (see Resource.hold).",
    .tp_as_async = &hold_as_async,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)hold_iternext,
    .tp_dealloc = (destructor)hold_dealloc,
    .tp_traverse = (traverseproc)hold_traverse,
    .tp_clear = (inquiry)hold_clear,
    .tp_methods = hold_methods,
    .tp_getset = hold_getset,
};

/* ------------------------------------------------------------------ */
/* module                                                              */

static PyObject *
mod_set_conditions(PyObject *mod, PyObject *args)
{
    PyObject *allof, *anyof;
    if (!PyArg_ParseTuple(args, "OO", &allof, &anyof))
        return NULL;
    Py_XSETREF(cond_allof, Py_NewRef(allof));
    Py_XSETREF(cond_anyof, Py_NewRef(anyof));
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"set_conditions", mod_set_conditions, METH_VARARGS,
     "Register the AllOf/AnyOf classes built against the compiled Event."},
    {NULL},
};

static struct PyModuleDef cengine_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._cengine",
    .m_doc = "Compiled simulation-kernel core (see repro.sim.engine).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__cengine(void)
{
    PyObject *pyengine = PyImport_ImportModule("repro.sim._pyengine");
    if (pyengine == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(pyengine, "SimulationError");
    InterruptExc = PyObject_GetAttrString(pyengine, "Interrupt");
    Py_DECREF(pyengine);
    if (SimulationError == NULL || InterruptExc == NULL)
        return NULL;
    str_throw = PyUnicode_InternFromString("throw");
    str_value = PyUnicode_InternFromString("value");
    str_timeout = PyUnicode_InternFromString("timeout");
    if (str_throw == NULL || str_value == NULL || str_timeout == NULL)
        return NULL;
    /* defining tp_richcompare suppresses tp_hash inheritance; Request
     * compares by (priority, seq) but hashes by identity, like the
     * pure-python class (__lt__ only). */
    Request_Type.tp_hash = PyBaseObject_Type.tp_hash;
    if (PyType_Ready(&Event_Type) < 0 ||
        PyType_Ready(&Wakeup_Type) < 0 ||
        PyType_Ready(&Timeout_Type) < 0 ||
        PyType_Ready(&Resume_Type) < 0 ||
        PyType_Ready(&Process_Type) < 0 ||
        PyType_Ready(&Simulator_Type) < 0 ||
        PyType_Ready(&Request_Type) < 0 ||
        PyType_Ready(&Resource_Type) < 0 ||
        PyType_Ready(&Store_Type) < 0 ||
        PyType_Ready(&Counter_Type) < 0 ||
        PyType_Ready(&Meter_Type) < 0 ||
        PyType_Ready(&Hold_Type) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&cengine_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddObjectRef(mod, "Event", (PyObject *)&Event_Type) < 0 ||
        PyModule_AddObjectRef(mod, "_Wakeup", (PyObject *)&Wakeup_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Timeout", (PyObject *)&Timeout_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Process", (PyObject *)&Process_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Simulator", (PyObject *)&Simulator_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Request", (PyObject *)&Request_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Resource", (PyObject *)&Resource_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Store", (PyObject *)&Store_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Counter", (PyObject *)&Counter_Type) < 0 ||
        PyModule_AddObjectRef(mod, "UtilizationMeter", (PyObject *)&Meter_Type) < 0 ||
        PyModule_AddObjectRef(mod, "SimulationError", SimulationError) < 0 ||
        PyModule_AddObjectRef(mod, "Interrupt", InterruptExc) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
