package disthd

// IdleReplicas and MaxIdleReplicas give the external tests, which drive
// the idle set through serve.Batcher, its size and its bound.
func IdleReplicas() int {
	n, _ := idleLen()
	return n
}

// MaxIdleReplicas is maxIdleReplicas.
const MaxIdleReplicas = maxIdleReplicas
