package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// maxAnswers bounds the answers one run can check: far above what the
// workloads answer in a 60-second window on two CPUs.
const maxAnswers = 4 << 20

// answerLog holds a run's answers in anonymous memory mapped outside
// the Go heap. The servers under test share the process, so answers
// kept on the heap would raise the memory the run reports, and the
// collector's pacing of the servers' garbage, by however many cells a
// run answers: a faster program would read as a hungrier one. Pages
// the log never touches cost nothing.
type answerLog struct {
	mem  []byte
	recs []answer
}

func newAnswerLog(n int) (*answerLog, error) {
	size := n * int(unsafe.Sizeof(answer{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mapping the answer log: %w", err)
	}
	return &answerLog{mem: mem, recs: unsafe.Slice((*answer)(unsafe.Pointer(&mem[0])), n)[:0]}, nil
}

// add appends a; it reports false when the log is full.
func (l *answerLog) add(a answer) bool {
	if len(l.recs) == cap(l.recs) {
		return false
	}
	l.recs = append(l.recs, a)
	return true
}

// all returns the answers logged so far; they stay valid until close.
func (l *answerLog) all() []answer { return l.recs }

func (l *answerLog) close() error {
	l.recs = nil
	return syscall.Munmap(l.mem)
}
