package models

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestSketchOverfitAndGrad(t *testing.T) {
	schemaToks := []string{"patients", "name", "age", "diagnosis", "patients.name", "patients.age", "patients.diagnosis", "@PATIENTS.AGE", "@PATIENTS.DIAGNOSIS", "@JOIN"}
	exs := []Example{
		{NL: strings.Fields("show the name of patient with age @PATIENTS.AGE"), SQL: strings.Fields("SELECT name FROM patients WHERE age = @PATIENTS.AGE"), Schema: schemaToks},
		{NL: strings.Fields("show the diagnosis of patient with age @PATIENTS.AGE"), SQL: strings.Fields("SELECT diagnosis FROM patients WHERE age = @PATIENTS.AGE"), Schema: schemaToks},
		{NL: strings.Fields("how many patient be there"), SQL: strings.Fields("SELECT COUNT ( * ) FROM patients"), Schema: schemaToks},
		{NL: strings.Fields("what be the average age of patient"), SQL: strings.Fields("SELECT AVG ( age ) FROM patients"), Schema: schemaToks},
	}
	cfg := DefaultSketchConfig()
	cfg.Epochs = 120
	m := NewSketch(cfg)
	m.Train(exs)
	correct := 0
	for _, ex := range exs {
		got := strings.Join(m.Translate(ex.NL, ex.Schema), " ")
		want := strings.Join(ex.SQL, " ")
		if got == want {
			correct++
		} else {
			t.Logf("MISS got %q want %q", got, want)
		}
	}
	if correct < len(exs) {
		t.Fatalf("sketch failed to overfit: %d/%d", correct, len(exs))
	}

	// gradient check on slot + classifier params
	m2 := NewSketch(SketchConfig{EmbDim: 6, HidDim: 8, LR: 0.01, Epochs: 0, MaxSlots: 4, GradClip: 100, MinCount: 1, Seed: 5})
	m2.Train(exs) // epochs=0: builds vocab/params only
	ex := exs[0]
	m2.ps.ZeroGrad()
	m2.step(ex, m2.inventory(exs)[0])
	const eps = 1e-5
	checked := 0
	for mi, mat := range m2.ps.Mats() {
		stride := len(mat.W)/5 + 1
		for i := 0; i < len(mat.W); i += stride {
			orig := mat.W[i]
			mat.W[i] = orig + eps
			lp := m2.Loss(ex)
			mat.W[i] = orig - eps
			lm := m2.Loss(ex)
			mat.W[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := mat.G[i]
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if math.Abs(num-ana)/scale > 1e-4 {
				t.Errorf("%s[%d]: analytic %.8f numeric %.8f", m2.ps.Names()[mi], i, ana, num)
			}
			checked++
		}
	}
	t.Logf("sketch grad check on %d params ok", checked)
}

// TestSketchConcurrentDecodesShareSchemaSet: decodes of one model run
// concurrently, as the server runs them, and the first ones race to
// build the memoized schema set of a schema the model never saw. Every
// decode must equal a sequential decode by a fresh copy of the model,
// and the model must keep exactly one schema set for that schema.
func TestSketchConcurrentDecodesShareSchemaSet(t *testing.T) {
	m := trainedSketch(t)
	var buf bytes.Buffer
	if err := m.SaveFull(&buf); err != nil {
		t.Fatal(err)
	}
	ref, err := LoadSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := []string{"ships", "label", "tonnage", "ships.label", "ships.tonnage", "@SHIPS.TONNAGE", "@JOIN"}
	nls := append(decodeQuestions(), strings.Fields("show the label of ship with tonnage @SHIPS.TONNAGE"))
	want := make([][]string, len(nls))
	for i, nl := range nls {
		want[i] = ref.Translate(nl, st)
	}
	const workers = 8
	errs := make(chan string, workers*len(nls))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, nl := range nls {
				if got := m.Translate(nl, st); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("%v: concurrent %v, sequential %v", nl, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := len(m.sets.sets[tokensHash(st)]); n != 1 {
		t.Fatalf("%d schema sets memoized for one schema, want 1", n)
	}
}
