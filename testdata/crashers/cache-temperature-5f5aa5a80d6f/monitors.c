
double monitor1(double x)
    t = reg1->a;
    if (t > 7.5) {